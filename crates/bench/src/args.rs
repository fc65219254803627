//! Shared command-line argument parsing for the `exp_*` binaries.
//!
//! Every experiment takes the same knobs — a seed, an optional round cap, a
//! strategy subset and a workload subset — and used to hardcode them.
//! [`ExpArgs::parse`] centralizes the vocabulary; any other argument is a
//! usage error:
//!
//! ```text
//! exp_monitor --seed 7 --rounds 40 --strategies sync_vanilla,goal_aggr_unif \
//!             --workloads femnist,twitter
//! ```
//!
//! A binary that runs one fixed grid calls [`ExpArgs::parse_none`] instead,
//! which refuses every argument.

use crate::strategies::Strategy;

/// Parsed experiment arguments with per-experiment defaults filled by the
/// `*_or` accessors.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExpArgs {
    /// `--seed N` — course/fleet/data seed.
    pub seed: Option<u64>,
    /// `--rounds N` — override the workload's round cap.
    pub rounds: Option<u64>,
    /// `--strategies a,b,c` — strategy subset (paper labels or snake_case).
    pub strategies: Option<Vec<Strategy>>,
    /// `--workloads x,y` — workload subset by name (femnist, cifar, twitter).
    pub workloads: Option<Vec<String>>,
    /// `--threads N` — worker threads for the standalone runner's parallel
    /// client execution (`FlConfig::parallelism`): 1 serial, 0 all cores.
    pub threads: Option<usize>,
    /// `--clients a,b,c` — client counts to sweep (scale experiments).
    pub clients: Option<Vec<u64>>,
    /// `--topology star|hier:<tiers>x<fanout>|gossip:<degree>[x<rounds>]` —
    /// communication topology for the course (`FlConfig::topology`).
    pub topology: Option<fs_net::Topology>,
}

/// Known workload names (the `--workloads` vocabulary).
pub const WORKLOAD_NAMES: [&str; 3] = ["femnist", "cifar", "twitter"];

impl ExpArgs {
    /// Parses the process arguments; prints usage and exits on bad input.
    pub fn parse() -> Self {
        Self::parse_then(Ok)
    }

    /// For a binary that runs one fixed grid: any argument, a known flag
    /// included, is a usage error (exit 2) rather than silently ignored.
    pub fn parse_none() {
        Self::parse_then(Self::none);
    }

    /// Refuses every field set away from the default (testable form of
    /// [`ExpArgs::parse_none`]).
    fn none(self) -> Result<(), String> {
        if self == Self::default() {
            Ok(())
        } else {
            Err("this experiment takes no arguments".to_string())
        }
    }

    fn parse_then<T>(check: impl FnOnce(Self) -> Result<T, String>) -> T {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Self::parse_from(&argv).and_then(check) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: [--seed N] [--rounds N] [--strategies a,b,c] \
                     [--workloads femnist,cifar,twitter] [--threads N] \
                     [--clients a,b,c] [--topology star|hier:TxF|gossip:D]"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses an argument slice (testable form of [`ExpArgs::parse`]).
    pub fn parse_from(argv: &[String]) -> Result<Self, String> {
        let mut args = ExpArgs::default();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let mut value_for = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--seed" => {
                    let v = value_for("--seed")?;
                    args.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
                }
                "--rounds" => {
                    let v = value_for("--rounds")?;
                    args.rounds = Some(v.parse().map_err(|_| format!("bad rounds {v:?}"))?);
                }
                "--strategies" => {
                    let v = value_for("--strategies")?;
                    let mut out = Vec::new();
                    for name in v.split(',').filter(|s| !s.is_empty()) {
                        out.push(
                            Strategy::from_name(name)
                                .ok_or_else(|| format!("unknown strategy {name:?}"))?,
                        );
                    }
                    args.strategies = Some(out);
                }
                "--workloads" => {
                    let v = value_for("--workloads")?;
                    let mut out = Vec::new();
                    for name in v.split(',').filter(|s| !s.is_empty()) {
                        let name = name.to_ascii_lowercase();
                        if !WORKLOAD_NAMES.contains(&name.as_str()) {
                            return Err(format!(
                                "unknown workload {name:?} (known: {})",
                                WORKLOAD_NAMES.join(", ")
                            ));
                        }
                        out.push(name);
                    }
                    args.workloads = Some(out);
                }
                "--threads" => {
                    let v = value_for("--threads")?;
                    args.threads = Some(v.parse().map_err(|_| format!("bad threads {v:?}"))?);
                }
                "--clients" => {
                    let v = value_for("--clients")?;
                    let mut out = Vec::new();
                    for n in v.split(',').filter(|s| !s.is_empty()) {
                        // allow 250k / 1m style suffixes alongside raw counts
                        let n = n.to_ascii_lowercase();
                        let (digits, mul) = match n.strip_suffix(['k', 'm']) {
                            Some(d) if n.ends_with('k') => (d, 1_000),
                            Some(d) => (d, 1_000_000),
                            None => (n.as_str(), 1),
                        };
                        let base: u64 = digits
                            .parse()
                            .map_err(|_| format!("bad client count {n:?}"))?;
                        out.push(base * mul);
                    }
                    if out.is_empty() {
                        return Err("--clients needs at least one count".to_string());
                    }
                    args.clients = Some(out);
                }
                "--topology" => {
                    let v = value_for("--topology")?;
                    args.topology = Some(fs_net::Topology::parse(&v)?);
                }
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        Ok(args)
    }

    /// The seed, or an experiment-specific default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The round cap, or an experiment-specific default.
    pub fn rounds_or(&self, default: u64) -> u64 {
        self.rounds.unwrap_or(default)
    }

    /// The strategy subset, or an experiment-specific default set.
    pub fn strategies_or(&self, default: Vec<Strategy>) -> Vec<Strategy> {
        self.strategies.clone().unwrap_or(default)
    }

    /// The workload subset, or an experiment-specific default set.
    pub fn workloads_or(&self, default: &[&str]) -> Vec<String> {
        self.workloads
            .clone()
            .unwrap_or_else(|| default.iter().map(|s| s.to_string()).collect())
    }

    /// The worker-thread count, or an experiment-specific default
    /// (experiments pass 1: serial remains the default everywhere).
    pub fn threads_or(&self, default: usize) -> usize {
        self.threads.unwrap_or(default)
    }

    /// The client-count sweep, or an experiment-specific default.
    pub fn clients_or(&self, default: &[u64]) -> Vec<u64> {
        self.clients.clone().unwrap_or_else(|| default.to_vec())
    }

    /// The topology, or an experiment-specific default (usually `Star`).
    pub fn topology_or(&self, default: fs_net::Topology) -> fs_net::Topology {
        self.topology.unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_full_vocabulary() {
        let a = ExpArgs::parse_from(&argv(&[
            "--seed",
            "42",
            "--rounds",
            "10",
            "--strategies",
            "sync_vanilla,Goal-Aggr-Unif",
            "--workloads",
            "femnist,twitter",
            "--threads",
            "4",
            "--clients",
            "10000,250k,1m",
        ]))
        .unwrap();
        assert_eq!(a.seed_or(7), 42);
        assert_eq!(a.rounds_or(300), 10);
        assert_eq!(a.threads_or(1), 4);
        assert_eq!(a.clients_or(&[5]), vec![10_000, 250_000, 1_000_000]);
        assert_eq!(
            a.strategies_or(vec![]),
            vec![Strategy::SyncVanilla, Strategy::GoalAggrUnif]
        );
        assert_eq!(a.workloads_or(&["cifar"]), vec!["femnist", "twitter"]);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = ExpArgs::parse_from(&[]).unwrap();
        assert_eq!(a.seed_or(7), 7);
        assert_eq!(a.rounds_or(300), 300);
        assert_eq!(a.strategies_or(Strategy::table1()), Strategy::table1());
        assert_eq!(
            a.workloads_or(&WORKLOAD_NAMES),
            vec!["femnist", "cifar", "twitter"]
        );
        assert_eq!(a.threads_or(1), 1);
        assert_eq!(a.clients_or(&[10_000]), vec![10_000]);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(ExpArgs::parse_from(&argv(&["--seed"])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["--seed", "x"])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["--threads", "x"])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["--threads", "1,2"])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["--strategies", "nope"])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["--workloads", "mnist"])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["--clients", "abc"])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["--clients", ""])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["stray"])).is_err());
        // a mistyped flag is a usage error, not a silent default run
        assert!(ExpArgs::parse_from(&argv(&["--quik"])).is_err());
    }

    #[test]
    fn a_fixed_grid_binary_refuses_every_argument() {
        let none = |a: &[&str]| ExpArgs::parse_from(&argv(a)).and_then(ExpArgs::none);
        assert!(none(&[]).is_ok());
        assert!(none(&["--bogus"]).is_err());
        // a known flag too: these binaries do not read it yet
        assert!(none(&["--seed", "7"]).is_err());
        assert!(none(&["--threads", "1"]).is_err());
        assert!(none(&["--topology", "star"]).is_err());
    }

    #[test]
    fn parses_topologies() {
        use fs_net::Topology;
        let a = ExpArgs::parse_from(&argv(&["--topology", "hier:2x4"])).unwrap();
        assert_eq!(
            a.topology_or(Topology::Star),
            Topology::Hierarchical {
                tiers: 2,
                fanout: 4
            }
        );
        let a = ExpArgs::parse_from(&argv(&["--topology", "gossip:3"])).unwrap();
        assert_eq!(
            a.topology_or(Topology::Star),
            Topology::Gossip {
                degree: 3,
                rounds: 0
            }
        );
        let a = ExpArgs::parse_from(&argv(&["--topology", "star"])).unwrap();
        assert_eq!(a.topology_or(HIER_DEFAULT), Topology::Star);
        let a = ExpArgs::parse_from(&[]).unwrap();
        assert_eq!(a.topology_or(Topology::Star), Topology::Star);
        assert!(ExpArgs::parse_from(&argv(&["--topology", "ring"])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["--topology", "hier:0x4"])).is_err());
        assert!(ExpArgs::parse_from(&argv(&["--topology"])).is_err());
    }

    const HIER_DEFAULT: fs_net::Topology = fs_net::Topology::Hierarchical {
        tiers: 2,
        fanout: 4,
    };

    #[test]
    fn strategy_names_parse_in_any_style() {
        for s in Strategy::all() {
            assert_eq!(Strategy::from_name(s.label()), Some(s));
            let snake = s.label().replace('-', "_").to_lowercase();
            assert_eq!(Strategy::from_name(&snake), Some(s));
        }
        assert_eq!(Strategy::from_name("no-such"), None);
    }
}
