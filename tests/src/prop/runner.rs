//! The property runner: seeded case derivation, greedy shrinking, and a
//! failure report that is reproducible from one printed `u64`.

use super::gen::Strategy;
use heimdall_trace::rng::Rng64;

/// Runner configuration. [`Config::default`] is the CI budget: 256 cases
/// per property, master seed 0, a generous shrink budget.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Generated cases per property (the CI floor is 256).
    pub cases: u64,
    /// Master seed; each case derives its own seed from it.
    pub seed: u64,
    /// Maximum accepted shrink steps before the search stops.
    pub max_shrink_steps: usize,
    /// Maximum property evaluations spent on shrink candidates.
    pub max_shrink_evals: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            seed: 0,
            max_shrink_steps: 4_096,
            max_shrink_evals: 100_000,
        }
    }
}

impl Config {
    /// A config with a property-specific master seed (so two properties
    /// sharing a strategy do not replay identical streams).
    pub fn seeded(seed: u64) -> Config {
        Config {
            seed,
            ..Config::default()
        }
    }
}

/// SplitMix64 finalizer: derives case seed `i` from the master seed. The
/// derived value is the *entire* identity of a case — printing it is
/// enough to replay the case on any machine.
fn case_seed(master: u64, case: u64) -> u64 {
    let mut z = master
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(case.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A falsified property, fully shrunk.
#[derive(Debug, Clone)]
pub struct CounterExample<T> {
    /// Case index within the run (0-based).
    pub case: u64,
    /// The case's seed — `HEIMDALL_PROP_SEED=<this>` replays it exactly.
    pub case_seed: u64,
    /// The originally generated failing value.
    pub original: T,
    /// The minimal failing value the shrinker reached.
    pub minimal: T,
    /// Accepted shrink steps between `original` and `minimal`.
    pub shrink_steps: usize,
    /// Failure message the property returned for `minimal`.
    pub message: String,
}

/// Parses `HEIMDALL_PROP_SEED` (decimal or `0x`-prefixed hex).
fn env_seed() -> Option<u64> {
    let raw = std::env::var("HEIMDALL_PROP_SEED").ok()?;
    let raw = raw.trim();
    let parsed = raw
        .strip_prefix("0x")
        .map(|h| u64::from_str_radix(h, 16))
        .unwrap_or_else(|| raw.parse());
    match parsed {
        Ok(v) => Some(v),
        Err(_) => panic!("HEIMDALL_PROP_SEED must be a u64 (decimal or 0x hex), got {raw:?}"),
    }
}

/// Parses `HEIMDALL_PROP_CASES` — the fuzz-lane budget override.
fn env_cases() -> Option<u64> {
    let raw = std::env::var("HEIMDALL_PROP_CASES").ok()?;
    match raw.trim().parse() {
        Ok(v) => Some(v),
        Err(_) => panic!("HEIMDALL_PROP_CASES must be a u64, got {raw:?}"),
    }
}

/// Greedy shrink: repeatedly adopt the first candidate that still fails,
/// until no candidate fails or a budget runs out. Returns the minimal
/// value, its failure message, and the accepted step count.
fn shrink_to_minimal<S: Strategy>(
    cfg: &Config,
    strategy: &S,
    mut current: S::Value,
    mut message: String,
    prop: &impl Fn(&S::Value) -> Result<(), String>,
) -> (S::Value, String, usize) {
    let mut steps = 0usize;
    let mut evals = 0usize;
    'outer: while steps < cfg.max_shrink_steps {
        for cand in strategy.shrink(&current) {
            if evals >= cfg.max_shrink_evals {
                break 'outer;
            }
            evals += 1;
            if let Err(msg) = prop(&cand) {
                current = cand;
                message = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, message, steps)
}

/// Runs `prop` over `cfg.cases` generated values and returns the shrunk
/// counterexample of the first failing case, or `None` when every case
/// passes.
///
/// Honors `HEIMDALL_PROP_SEED` (replay exactly one case by seed) and
/// `HEIMDALL_PROP_CASES` (override the case budget — the fuzz lane).
pub fn falsify<S: Strategy>(
    cfg: &Config,
    strategy: &S,
    prop: impl Fn(&S::Value) -> Result<(), String>,
) -> Option<CounterExample<S::Value>> {
    let replay = env_seed();
    let cases = if replay.is_some() {
        1
    } else {
        env_cases().unwrap_or(cfg.cases)
    };
    for case in 0..cases {
        let seed = replay.unwrap_or_else(|| case_seed(cfg.seed, case));
        let value = strategy.generate(&mut Rng64::new(seed));
        if let Err(message) = prop(&value) {
            let original = value.clone();
            let (minimal, message, shrink_steps) =
                shrink_to_minimal(cfg, strategy, value, message, &prop);
            return Some(CounterExample {
                case,
                case_seed: seed,
                original,
                minimal,
                shrink_steps,
                message,
            });
        }
    }
    None
}

/// The command that replays case `seed` of property `name`. It names the
/// package whose tests are running (Cargo sets `CARGO_PKG_NAME` for each
/// test process), so a property that lives inside a library crate's unit
/// tests is replayed there; with `package` unset, `-p` is omitted.
fn reproduce_command(package: Option<&str>, seed: u64, name: &str) -> String {
    match package {
        Some(pkg) => format!("HEIMDALL_PROP_SEED={seed:#x} cargo test -p {pkg} {name}"),
        None => format!("HEIMDALL_PROP_SEED={seed:#x} cargo test {name}"),
    }
}

/// [`falsify`], panicking with a reproducible report on failure. `name`
/// should be the `#[test]` function name so the printed reproduction
/// command filters to exactly that property.
///
/// # Panics
///
/// Panics when the property is falsified; the message carries the case
/// seed, the reproduction command, and the minimal counterexample.
pub fn check<S: Strategy>(
    name: &str,
    cfg: &Config,
    strategy: &S,
    prop: impl Fn(&S::Value) -> Result<(), String>,
) {
    if let Some(cx) = falsify(cfg, strategy, prop) {
        let package = std::env::var("CARGO_PKG_NAME").ok();
        panic!(
            "property '{name}' falsified\n\
             \x20 case       : {case}\n\
             \x20 case seed  : {seed:#018x}\n\
             \x20 reproduce  : {reproduce}\n\
             \x20 original   : {original:?}\n\
             \x20 minimal    : {minimal:?} (after {steps} shrink steps)\n\
             \x20 failure    : {message}",
            case = cx.case,
            seed = cx.case_seed,
            reproduce = reproduce_command(package.as_deref(), cx.case_seed, name),
            original = cx.original,
            minimal = cx.minimal,
            steps = cx.shrink_steps,
            message = cx.message,
        );
    }
}

/// Planted-bug self-tests: the shrinker must provably minimize.
#[cfg(test)]
mod self_tests {
    use super::*;
    use crate::prop::gen::{tuple2, u64_in, vec_of};

    /// Planted bug A: "no vector contains an element >= 64". The unique
    /// minimal counterexample is the single-element vector `[64]`: chunk
    /// removal strips every other element, and scalar binary search plus
    /// the `-1` refinement lands exactly on the boundary.
    #[test]
    fn shrinker_minimizes_planted_vector_bug_to_documented_counterexample() {
        let strategy = vec_of(u64_in(0..=10_000), 0..=64);
        let cx = falsify(&Config::seeded(0xbadb06), &strategy, |v| {
            if v.iter().any(|&x| x >= 64) {
                Err(format!("planted bug: {v:?} has an element >= 64"))
            } else {
                Ok(())
            }
        })
        .expect("the planted bug must be found within 256 cases");
        assert_eq!(
            cx.minimal,
            vec![64],
            "shrinker must reach the documented minimal counterexample"
        );
        assert!(
            cx.shrink_steps > 0,
            "the generated case {:?} should not already be minimal",
            cx.original
        );
        // The report is reproducible: regenerating from the printed seed
        // yields the original counterexample.
        let replay = strategy.generate(&mut Rng64::new(cx.case_seed));
        assert_eq!(replay, cx.original);
    }

    /// Planted bug B: "a + b < 150" over `[0, 100]^2`. Greedy coordinate
    /// shrinking reaches a minimal failing pair, i.e. one where shrinking
    /// either coordinate alone repairs the property (a + b == 150).
    #[test]
    fn shrinker_minimizes_planted_tuple_bug_to_the_boundary() {
        let strategy = tuple2(u64_in(0..=100), u64_in(0..=100));
        let cx = falsify(&Config::seeded(0xbadb07), &strategy, |&(a, b)| {
            if a + b >= 150 {
                Err(format!("planted bug: {a} + {b} >= 150"))
            } else {
                Ok(())
            }
        })
        .expect("the planted bug must be found");
        let (a, b) = cx.minimal;
        assert_eq!(a + b, 150, "minimal pair sits exactly on the boundary");
    }

    /// A true property is never falsified, under the default budget and
    /// under a fuzz-scale budget.
    #[test]
    fn true_property_has_no_counterexample() {
        let strategy = vec_of(u64_in(0..=100), 0..=32);
        let cfg = Config {
            cases: 2_000,
            ..Config::seeded(3)
        };
        assert!(falsify(&cfg, &strategy, |v| {
            if v.iter().all(|&x| x <= 100) {
                Ok(())
            } else {
                Err("generator escaped its bounds".into())
            }
        })
        .is_none());
    }

    /// Case seeds are stable across runs and distinct across cases — the
    /// printed `u64` is a durable address for a failure.
    #[test]
    fn case_seeds_are_stable_and_distinct() {
        let a: Vec<u64> = (0..32).map(|i| case_seed(9, i)).collect();
        let b: Vec<u64> = (0..32).map(|i| case_seed(9, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
        assert_ne!(case_seed(9, 0), case_seed(10, 0));
    }

    /// The failure report's reproduce command runs the package whose tests
    /// are running, not a fixed one: a property inside another crate's unit
    /// tests must replay there, or the filter matches nothing and passes.
    #[test]
    fn report_names_the_running_package() {
        let running = std::env::var("CARGO_PKG_NAME").ok();
        if let Some(pkg) = &running {
            assert_eq!(
                pkg,
                env!("CARGO_PKG_NAME"),
                "cargo names this test's package"
            );
        }
        let report = std::panic::catch_unwind(|| {
            check(
                "planted_always_fails",
                &Config::seeded(5),
                &u64_in(0..=9),
                |_| Err("always fails".into()),
            )
        })
        .expect_err("an always-failing property panics");
        let report = report
            .downcast_ref::<String>()
            .expect("the report is a formatted String");
        let want = match &running {
            Some(pkg) => format!("cargo test -p {pkg} planted_always_fails\n"),
            None => "cargo test planted_always_fails\n".to_string(),
        };
        assert!(report.contains(&want), "{report}");
        assert_eq!(
            reproduce_command(Some("heimdall-ssd"), 0x2a, "prop_x"),
            "HEIMDALL_PROP_SEED=0x2a cargo test -p heimdall-ssd prop_x"
        );
        assert_eq!(
            reproduce_command(None, 0x2a, "prop_x"),
            "HEIMDALL_PROP_SEED=0x2a cargo test prop_x"
        );
    }

    /// The shrink budget is honored: a pathological always-failing
    /// property terminates.
    #[test]
    fn shrink_budget_terminates() {
        let strategy = vec_of(u64_in(0..=u64::MAX), 0..=512);
        let cfg = Config {
            max_shrink_steps: 16,
            ..Config::seeded(11)
        };
        let cx = falsify(&cfg, &strategy, |_| Err("always fails".into())).expect("fails at once");
        assert_eq!(cx.minimal, Vec::<u64>::new(), "empty vec reached quickly");
    }
}
