//! A dense set of participant ids.
//!
//! The server asks "is this client busy?" once per roster entry on every
//! update it hands a model out for, so membership has to be a bit test, not a
//! tree walk. [`IdSet`] keeps the part of `BTreeSet<ParticipantId>`'s surface
//! the server uses and answers it from a word bitmap.
//!
//! # Hostile ids
//!
//! The TCP hub admits any hello id, so an id off the wire must never size an
//! allocation. Ids below [`DENSE_LIMIT`] index the bitmap, which therefore
//! never exceeds `DENSE_LIMIT / 8` = 512 KiB; ids at or above it live in a
//! sorted spill that costs a tree node each. Behaviour is the same on both
//! sides of the limit — only the cost differs.

use fs_net::ParticipantId;
use std::collections::BTreeSet;

/// Ids below this are bitmap bits; ids at or above it are spilled.
pub const DENSE_LIMIT: ParticipantId = 1 << 22;

/// A set of participant ids: a bitmap grown on demand, plus a sorted spill
/// for ids too large to index it.
#[derive(Clone, Debug, Default)]
pub struct IdSet {
    words: Vec<u64>,
    spill: BTreeSet<ParticipantId>,
    len: usize,
}

/// The bitmap word holding `id`, and `id`'s bit in it.
#[inline]
fn slot(id: ParticipantId) -> (usize, u64) {
    (id as usize / 64, 1u64 << (id % 64))
}

impl IdSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `id`; `true` when it was not yet present.
    pub fn insert(&mut self, id: ParticipantId) -> bool {
        let added = if id < DENSE_LIMIT {
            let (word, bit) = slot(id);
            if word >= self.words.len() {
                self.words.resize(word + 1, 0);
            }
            let fresh = self.words[word] & bit == 0;
            self.words[word] |= bit;
            fresh
        } else {
            self.spill.insert(id)
        };
        self.len += usize::from(added);
        added
    }

    /// Removes `id`; `true` when it was present.
    pub fn remove(&mut self, id: &ParticipantId) -> bool {
        let removed = if *id < DENSE_LIMIT {
            let (word, bit) = slot(*id);
            match self.words.get_mut(word) {
                Some(w) if *w & bit != 0 => {
                    *w &= !bit;
                    true
                }
                _ => false,
            }
        } else {
            self.spill.remove(id)
        };
        self.len -= usize::from(removed);
        removed
    }

    /// `true` when `id` is in the set.
    #[inline]
    pub fn contains(&self, id: &ParticipantId) -> bool {
        if *id < DENSE_LIMIT {
            let (word, bit) = slot(*id);
            self.words.get(word).is_some_and(|w| w & bit != 0)
        } else {
            self.spill.contains(id)
        }
    }

    /// Number of ids in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the set holds no id.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the set, keeping the bitmap's allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.spill.clear();
        self.len = 0;
    }

    /// Refills `into` with the ids of `from` that are not in the set, in
    /// `from`'s order. The compaction does not branch on membership, which
    /// a set that changes between calls (the server's busy clients) would
    /// keep mispredicting: every id is written to the next free slot, and
    /// only an absent one keeps it.
    pub fn absent_into(&self, from: &[ParticipantId], into: &mut Vec<ParticipantId>) {
        into.clear();
        into.extend_from_slice(from);
        let mut kept = 0;
        for i in 0..into.len() {
            let id = into[i];
            into[kept] = id;
            kept += usize::from(!self.contains(&id));
        }
        into.truncate(kept);
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ParticipantId> + '_ {
        let dense = self.words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    i as ParticipantId * 64 + bit
                })
            })
        });
        // every spilled id is above every bitmap id
        dense.chain(self.spill.iter().copied())
    }
}

/// Two sets are equal when they hold the same ids, however far each bitmap
/// has grown.
impl PartialEq for IdSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for IdSet {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(ParticipantId),
        Remove(ParticipantId),
        Clear,
    }

    /// Ids clustered so that operations collide: low ids (which cross a word
    /// boundary) and ids on both sides of the dense limit. The vendored
    /// proptest has no `prop_oneof`, so a selector picks the cluster.
    fn id() -> impl Strategy<Value = ParticipantId> {
        (0u8..4, 0u32..130).prop_map(|(cluster, k)| match cluster {
            0 | 1 => k,
            2 => DENSE_LIMIT - 3 + k % 6,
            _ => u32::MAX - k % 4,
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..15, id()).prop_map(|(kind, id)| match kind {
            0..=7 => Op::Insert(id),
            8..=13 => Op::Remove(id),
            _ => Op::Clear,
        })
    }

    proptest! {
        #[test]
        fn behaves_like_a_btreeset(
            ops in proptest::collection::vec(op(), 0..120),
            probe in id(),
            from in proptest::collection::vec(id(), 0..40),
        ) {
            let mut set = IdSet::new();
            let mut model = BTreeSet::new();
            for op in ops {
                match op {
                    Op::Insert(id) => prop_assert_eq!(set.insert(id), model.insert(id)),
                    Op::Remove(id) => prop_assert_eq!(set.remove(&id), model.remove(&id)),
                    Op::Clear => {
                        set.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(set.len(), model.len());
                prop_assert_eq!(set.is_empty(), model.is_empty());
                prop_assert_eq!(set.contains(&probe), model.contains(&probe));
            }
            // once per case: a set that reached the dense limit walks 64 Ki
            // words, and the sequence lengths vary anyway
            prop_assert!(set.iter().eq(model.iter().copied()), "iter order");
            // the compaction keeps `from`'s order and drops exactly the members
            let mut absent = vec![7; 3];
            set.absent_into(&from, &mut absent);
            let want: Vec<_> = from.iter().copied().filter(|id| !model.contains(id)).collect();
            prop_assert_eq!(absent, want);
            // equality looks at members, not at how far the bitmap grew
            let rebuilt: IdSet = {
                let mut s = IdSet::new();
                for &id in &model {
                    s.insert(id);
                }
                s
            };
            prop_assert_eq!(&set, &rebuilt);
        }
    }

    #[test]
    fn a_huge_id_costs_a_spill_entry_not_a_bitmap() {
        let mut set = IdSet::new();
        assert!(set.insert(u32::MAX - 1));
        assert!(set.insert(DENSE_LIMIT));
        assert!(set.insert(DENSE_LIMIT - 1));
        assert!(set.words.len() * 8 <= DENSE_LIMIT as usize / 8);
        assert_eq!(set.spill.len(), 2);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![DENSE_LIMIT - 1, DENSE_LIMIT, u32::MAX - 1]
        );
    }
}
