//! Worker-owned scratch: a per-thread free list of tensors.
//!
//! A training step needs the same set of temporaries every time — layer
//! outputs, cached activations, lowering tiles, staged transposes. Layers
//! `take` them here and `give` them back when the step is done with them,
//! so after one warm step the loop allocates nothing, and the buffers belong
//! to the thread that runs the clients, not to each client's model: a model
//! that has returned from a step holds parameters and gradients only.
//!
//! Results never depend on what a recycled buffer contains: `take` promises
//! nothing about contents, and every kernel that receives one either writes
//! every element or fills it first ([`poison`] lets tests prove it, and debug
//! builds poison every buffer as it is given back).

use crate::Tensor;
use std::cell::RefCell;

/// Free tensors kept per thread; a tensor given back beyond this is freed.
/// A convnet2 step has about twenty live temporaries at its widest.
const MAX_POOLED: usize = 64;

thread_local! {
    static POOL: RefCell<Vec<Tensor>> = const { RefCell::new(Vec::new()) };
}

/// A tensor of `shape` whose contents are unspecified.
///
/// Prefers a pooled buffer of exactly the requested size (so a repeated step
/// finds each buffer it gave back), then the smallest one that is large
/// enough; allocates only when nothing fits.
pub(crate) fn take(shape: &[usize]) -> Tensor {
    let numel: usize = shape.iter().product();
    let recycled = POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let exact = pool.iter().position(|t| t.numel() == numel);
        let pick = exact.or_else(|| {
            pool.iter()
                .enumerate()
                .filter(|(_, t)| t.capacity() >= numel)
                .min_by_key(|(_, t)| t.capacity())
                .map(|(i, _)| i)
        });
        pick.map(|i| pool.swap_remove(i))
    });
    match recycled {
        Some(mut t) => {
            t.reset_to(shape);
            t
        }
        None => Tensor::zeros(shape),
    }
}

/// Hands a tensor back for reuse. A tensor whose storage is still shared
/// (a cached clone is alive somewhere) is just dropped: its last holder
/// gives the buffer back.
pub(crate) fn give(mut t: Tensor) {
    if !t.is_unique() {
        return;
    }
    // Poisoning between steps only catches a stale read across steps; a
    // buffer recycled within one step holds finite leftovers. Debug builds
    // therefore hand every buffer back as NaN, so a read-before-write turns
    // any debug test's numbers into NaN instead of passing on luck.
    if cfg!(debug_assertions) {
        t.poison();
    }
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(t);
        }
    });
}

/// Overwrites every pooled buffer of the calling thread with NaN, up to its
/// full capacity. Test hook: a step that read recycled memory before writing
/// it would turn its outputs into NaN.
#[doc(hidden)]
pub fn poison() {
    POOL.with(|pool| {
        for t in pool.borrow_mut().iter_mut() {
            t.poison();
        }
    });
}

/// Number of tensors pooled on the calling thread (test hook).
#[doc(hidden)]
pub fn pooled() -> usize {
    POOL.with(|pool| pool.borrow().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_a_given_buffer_of_the_same_size() {
        let mut a = take(&[3, 5]);
        a.fill(1.5);
        let ptr = a.data().as_ptr();
        give(a);
        let b = take(&[5, 3]);
        assert_eq!(b.shape(), &[5, 3]);
        assert_eq!(b.data().as_ptr(), ptr, "same-size request must recycle");
        give(b);
    }

    #[test]
    fn shared_storage_is_not_pooled() {
        let a = take(&[7]);
        let before = pooled();
        let alias = a.clone();
        give(a);
        assert_eq!(pooled(), before, "a shared buffer must not be recycled");
        give(alias);
        assert_eq!(pooled(), before + 1);
    }

    #[test]
    fn poison_fills_capacity_and_take_still_sizes_correctly() {
        give(Tensor::zeros(&[16]));
        poison();
        let t = take(&[4]);
        assert_eq!(t.numel(), 4);
        assert!(
            t.data().iter().all(|v| v.is_nan()),
            "recycled, not refilled"
        );
        give(t);
    }
}
