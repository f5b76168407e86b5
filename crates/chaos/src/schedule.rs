//! Seeded random fault schedules.
//!
//! A [`Schedule`] is fully determined by its seed: the workload it drives
//! (round-robin over the three workload kinds so every small batch covers
//! all of them, crash drills included) and the fault entries it arms. The
//! entries render to the `guard::failpoint` spec grammar and the subprocess
//! additionally receives the seed as `BOOTES_FAILPOINT_SEED`, so
//! probabilistic entries replay bit-identically too — a `(seed, workload)`
//! pair IS the repro.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which workload a schedule drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot CLI pipeline run (`bootes reorder`) with faults at the
    /// graceful-degradation sites; must still exit 0 with a valid output.
    Pipeline,
    /// `bootes serve` daemon under fault load, driven by a retrying client;
    /// every request must be answered and the drain must be clean.
    Serve,
    /// SIGKILL-mid-cache-write drill: a `kill` failpoint inside the cache's
    /// torn-write window, then a restart on the same cache dir that must
    /// recover fully and answer bit-identically to a fault-free run.
    CrashRestart,
}

impl Workload {
    /// Stable wire name (used in replay specs and reports).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pipeline => "pipeline",
            Workload::Serve => "serve",
            Workload::CrashRestart => "crash-restart",
        }
    }

    fn from_name(s: &str) -> Option<Workload> {
        match s {
            "pipeline" => Some(Workload::Pipeline),
            "serve" => Some(Workload::Serve),
            "crash-restart" => Some(Workload::CrashRestart),
            _ => None,
        }
    }
}

/// One armed fault, already rendered to the failpoint spec grammar
/// (`site=action[@N|%P]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEntry {
    /// The full `site=action[trigger]` spec fragment.
    pub spec: String,
}

/// A reproducible fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The generating seed (also the subprocess `BOOTES_FAILPOINT_SEED`).
    pub seed: u64,
    /// Which workload the faults are injected into.
    pub workload: Workload,
    /// The armed faults; the empty list is a valid (fault-free) schedule.
    pub entries: Vec<FaultEntry>,
}

/// Failpoint sites on the pipeline's graceful-degradation path. A fault at
/// any of them must degrade the reorder to a cheaper algorithm, never fail
/// the run — which is what makes the exit-0 oracle decidable. Sites outside
/// the chain (e.g. `sparse.io.read`) legitimately produce typed error exits
/// and are deliberately not in the pool.
const PIPELINE_SITES: &[&str] = &[
    "lanczos.restart",
    "kmeans.iter",
    "spectral.cluster",
    "hier.merge",
    "par.worker",
];

/// Serve-layer sites. `serve.accept` drops the connection (the retrying
/// client reconnects), `serve.parse` fails one request line (a well-formed
/// error response), `serve.coalesce.leader` fails a whole coalesced flight.
/// All are `err`-only: a panic here would cross a thread boundary the serve
/// crate does not isolate, which is a known limitation, not a chaos target.
const SERVE_SITES: &[&str] = &["serve.accept", "serve.parse", "serve.coalesce.leader"];

impl Schedule {
    /// Generates the schedule for `seed`. Deterministic: the same seed
    /// always yields the same workload and entries.
    pub fn generate(seed: u64) -> Schedule {
        let workload = match seed % 3 {
            0 => Workload::Pipeline,
            1 => Workload::Serve,
            _ => Workload::CrashRestart,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries = Vec::new();
        match workload {
            Workload::Pipeline => {
                for _ in 0..rng.random_range(1..4usize) {
                    entries.push(pipeline_entry(&mut rng));
                }
            }
            Workload::Serve => {
                // At least one serve-layer fault, plus pipeline faults that
                // the daemon's executions must absorb.
                entries.push(serve_entry(&mut rng));
                for _ in 0..rng.random_range(0..3usize) {
                    entries.push(pipeline_entry(&mut rng));
                }
            }
            Workload::CrashRestart => {
                // The drill core: die without unwinding in the torn-write
                // window (kill@1 fires exactly between the temp write and the
                // atomic rename). Optional pipeline faults exercise recovery
                // under degradation. Never stack a second action on the same
                // site: the failpoint table holds one entry per site, so a
                // duplicate would shadow the kill and defang the drill.
                entries.push(FaultEntry {
                    spec: "cache.disk.tmp_written=kill@1".to_string(),
                });
                for _ in 0..rng.random_range(0..3usize) {
                    entries.push(pipeline_entry(&mut rng));
                }
            }
        }
        // One entry per site: the failpoint table keys on site, so a second
        // entry would silently shadow the first and the schedule would not
        // mean what it prints. Keep the first occurrence (preserves the
        // crash drill's kill entry).
        let mut seen = Vec::new();
        entries.retain(|e| {
            let site = e.spec.split('=').next().unwrap_or_default().to_string();
            if seen.contains(&site) {
                false
            } else {
                seen.push(site);
                true
            }
        });
        Schedule {
            seed,
            workload,
            entries,
        }
    }

    /// The `BOOTES_FAILPOINTS` spec string (entries joined with commas).
    pub fn spec_string(&self) -> String {
        let frags: Vec<&str> = self.entries.iter().map(|e| e.spec.as_str()).collect();
        frags.join(",")
    }

    /// Compact single-token replay form: `seed:workload:spec`. Feed it back
    /// through `bootes chaos --replay <token>` (or [`Schedule::parse_replay`])
    /// to rerun exactly this schedule — including a shrunk entry subset that
    /// no generator seed would produce.
    pub fn replay_string(&self) -> String {
        format!(
            "{}:{}:{}",
            self.seed,
            self.workload.name(),
            self.spec_string()
        )
    }

    /// Parses a [`Schedule::replay_string`] token.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed token.
    pub fn parse_replay(token: &str) -> Result<Schedule, String> {
        let (seed, rest) = token
            .split_once(':')
            .ok_or_else(|| format!("replay token `{token}`: expected seed:workload:spec"))?;
        let (workload, spec) = rest
            .split_once(':')
            .ok_or_else(|| format!("replay token `{token}`: expected seed:workload:spec"))?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("replay token `{token}`: bad seed `{seed}`"))?;
        let workload = Workload::from_name(workload)
            .ok_or_else(|| format!("replay token `{token}`: unknown workload `{workload}`"))?;
        // Validate the spec through the real parser so a typo fails here,
        // not silently inside the subprocess.
        bootes_guard::ScopedFailpoints::arm(spec).map(drop)?;
        let entries = spec
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| FaultEntry {
                spec: s.trim().to_string(),
            })
            .collect();
        Ok(Schedule {
            seed,
            workload,
            entries,
        })
    }
}

fn pipeline_entry(rng: &mut StdRng) -> FaultEntry {
    let site = PIPELINE_SITES[rng.random_range(0..PIPELINE_SITES.len())];
    let action = match rng.random_range(0..4u32) {
        0 => "panic".to_string(),
        1 => format!("delay:{}ms", rng.random_range(1..20u64)),
        _ => "err".to_string(),
    };
    let trigger = if rng.random::<bool>() {
        format!("@{}", rng.random_range(1..4u64))
    } else {
        // Probabilities are kept below 0.5 so repeated hits of a degraded
        // retry path still converge.
        format!("%{:.2}", rng.random_range(0.05..0.45f64))
    };
    FaultEntry {
        spec: format!("{site}={action}{trigger}"),
    }
}

fn serve_entry(rng: &mut StdRng) -> FaultEntry {
    let site = SERVE_SITES[rng.random_range(0..SERVE_SITES.len())];
    let trigger = if rng.random::<bool>() {
        format!("@{}", rng.random_range(1..3u64))
    } else {
        // Capped well below the retry budget's convergence threshold.
        format!("%{:.2}", rng.random_range(0.05..0.30f64))
    };
    FaultEntry {
        spec: format!("{site}=err{trigger}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..30 {
            assert_eq!(Schedule::generate(seed), Schedule::generate(seed));
        }
        assert_ne!(
            Schedule::generate(1).spec_string(),
            Schedule::generate(4).spec_string(),
            "different seeds of the same workload should differ"
        );
    }

    #[test]
    fn workloads_round_robin() {
        assert_eq!(Schedule::generate(0).workload, Workload::Pipeline);
        assert_eq!(Schedule::generate(1).workload, Workload::Serve);
        assert_eq!(Schedule::generate(2).workload, Workload::CrashRestart);
        assert_eq!(Schedule::generate(3).workload, Workload::Pipeline);
    }

    #[test]
    fn generated_specs_parse_under_guard() {
        for seed in 0..60 {
            let s = Schedule::generate(seed);
            let spec = s.spec_string();
            let guard = bootes_guard::ScopedFailpoints::arm(&spec)
                .unwrap_or_else(|e| panic!("seed {seed} spec `{spec}` failed to parse: {e}"));
            drop(guard);
        }
    }

    #[test]
    fn crash_schedules_always_carry_the_kill() {
        for seed in (2..60).step_by(3) {
            let s = Schedule::generate(seed);
            assert_eq!(s.workload, Workload::CrashRestart);
            assert!(
                s.entries
                    .iter()
                    .any(|e| e.spec == "cache.disk.tmp_written=kill@1"),
                "seed {seed} crash schedule lost its kill entry"
            );
        }
    }

    #[test]
    fn generated_sites_are_unique_per_schedule() {
        // The failpoint table keys on site (first match wins), so a duplicate
        // site would silently shadow a later action — in a crash drill that
        // can defang the kill entry entirely.
        for seed in 0..120 {
            let s = Schedule::generate(seed);
            let mut sites: Vec<&str> = s
                .entries
                .iter()
                .map(|e| e.spec.split('=').next().unwrap_or_default())
                .collect();
            let n = sites.len();
            sites.sort_unstable();
            sites.dedup();
            assert_eq!(sites.len(), n, "seed {seed} has duplicate sites: {s:?}");
        }
    }

    #[test]
    fn replay_roundtrips() {
        for seed in 0..12 {
            let s = Schedule::generate(seed);
            let token = s.replay_string();
            let back = Schedule::parse_replay(&token).expect("token parses");
            assert_eq!(back, s);
        }
        assert!(Schedule::parse_replay("nope").is_err());
        assert!(Schedule::parse_replay("5:unknown:a=err").is_err());
        assert!(Schedule::parse_replay("5:serve:a=gibberish").is_err());
        // An empty spec (fully shrunk schedule) is valid.
        let empty = Schedule::parse_replay("7:pipeline:").expect("empty spec parses");
        assert!(empty.entries.is_empty());
    }
}
