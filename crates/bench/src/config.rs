//! Typed experiment configuration read once from the environment.
//!
//! Every mg-bench binary starts with [`BenchConfig::from_env_or_exit`]
//! instead of sprinkling `env_u64` reads through its hot loop. Malformed
//! values are hard errors naming the variable and the expected shape —
//! a typo'd `MG_TRIALS=8x` aborts up front instead of silently running the
//! default trial count.

use crate::FaultPlan;
use mg_phy::MediumIndex;
use mg_runner::{Cache, CacheMode, Runner};
use mg_sim::SimTime;
use std::path::PathBuf;

/// The environment knobs shared by every experiment binary.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchConfig {
    /// Independent seeds per parameter point (`MG_TRIALS`, default 8).
    pub trials: u64,
    /// Virtual seconds per trial (`MG_SIM_SECS`, default 120).
    pub sim_secs: u64,
    /// When set, each table is mirrored as CSV here (`MG_CSV_DIR`).
    pub csv_dir: Option<PathBuf>,
    /// When set, each table is mirrored as JSON here (`MG_JSON_DIR`).
    pub json_dir: Option<PathBuf>,
    /// Result-cache mode (`MG_CACHE`: `on`/`off`/`refresh`, default on).
    pub cache_mode: CacheMode,
    /// Result-cache directory (`MG_CACHE_DIR`, default `results/.cache`).
    pub cache_dir: PathBuf,
    /// Fault-injection plan (`MG_FAULT_PROFILE` spec string, default no-op,
    /// with `MG_FAULT_SEED` overriding the plan's seed).
    pub fault: FaultPlan,
    /// Medium spatial-index strategy (`MG_MEDIUM_INDEX`: `naive`/`grid`,
    /// default grid). Results are byte-identical either way; the knob
    /// exists so CI can cross-check sweeps against the reference scan.
    pub medium_index: MediumIndex,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            trials: 8,
            sim_secs: 120,
            csv_dir: None,
            json_dir: None,
            cache_mode: CacheMode::ReadWrite,
            cache_dir: PathBuf::from("results/.cache"),
            fault: FaultPlan::default(),
            medium_index: MediumIndex::default(),
        }
    }
}

impl BenchConfig {
    /// Reads every knob from the environment, rejecting malformed values.
    ///
    /// Unset variables take their defaults; set-but-invalid ones return an
    /// error naming the variable, the offending value and what was expected.
    pub fn from_env() -> Result<BenchConfig, String> {
        let mut cfg = BenchConfig::default();
        cfg.trials = parse_u64("MG_TRIALS", cfg.trials)?;
        if cfg.trials == 0 {
            return Err("invalid MG_TRIALS value \"0\": need at least one trial".into());
        }
        cfg.sim_secs = parse_u64("MG_SIM_SECS", cfg.sim_secs)?;
        if cfg.sim_secs == 0 {
            return Err("invalid MG_SIM_SECS value \"0\": need at least one simulated second".into());
        }
        if cfg.sim_secs > SimTime::MAX_SECS {
            return Err(format!(
                "invalid MG_SIM_SECS value \"{}\": at most {} simulated seconds",
                cfg.sim_secs,
                SimTime::MAX_SECS
            ));
        }
        cfg.csv_dir = dir_var("MG_CSV_DIR");
        cfg.json_dir = dir_var("MG_JSON_DIR");
        if let Ok(v) = std::env::var("MG_CACHE") {
            cfg.cache_mode = CacheMode::parse(&v)?;
        }
        if let Some(d) = dir_var("MG_CACHE_DIR") {
            cfg.cache_dir = d;
        }
        if let Ok(spec) = std::env::var("MG_FAULT_PROFILE") {
            cfg.fault = FaultPlan::parse(&spec)
                .map_err(|e| format!("invalid MG_FAULT_PROFILE value {spec:?}: {e}"))?;
        }
        if let Ok(raw) = std::env::var("MG_MEDIUM_INDEX") {
            cfg.medium_index = MediumIndex::parse(&raw)
                .map_err(|e| format!("invalid MG_MEDIUM_INDEX value: {e}"))?;
        }
        if let Ok(raw) = std::env::var("MG_FAULT_SEED") {
            let seed: u64 = raw.trim().parse().map_err(|_| {
                format!("invalid MG_FAULT_SEED value {raw:?}: expected a non-negative integer")
            })?;
            cfg.fault = cfg.fault.with_seed(seed);
        }
        Ok(cfg)
    }

    /// [`BenchConfig::from_env`], exiting with status 2 on a malformed knob.
    pub fn from_env_or_exit() -> BenchConfig {
        match BenchConfig::from_env() {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("mg-bench: {e}");
                std::process::exit(2);
            }
        }
    }

    /// A sweep runner over this config's cache directory and mode, carrying
    /// the fault plan's runner-layer knobs (panics, hangs, watchdog).
    pub fn runner(&self) -> Runner {
        Runner::new(Cache::new(self.cache_dir.clone(), self.cache_mode))
            .with_faults(self.fault.runner.clone())
    }
}

fn parse_u64(name: &str, default: u64) -> Result<u64, String> {
    match std::env::var(name) {
        Err(_) => Ok(default),
        Ok(raw) => raw.trim().parse().map_err(|_| {
            format!("invalid {name} value {raw:?}: expected a non-negative integer")
        }),
    }
}

fn dir_var(name: &str) -> Option<PathBuf> {
    std::env::var_os(name).filter(|v| !v.is_empty()).map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var mutation is process-global, so the env-dependent cases run in
    // one test body instead of racing across the parallel test harness.
    #[test]
    fn env_parsing_round_trip() {
        let vars = [
            "MG_TRIALS",
            "MG_SIM_SECS",
            "MG_CSV_DIR",
            "MG_JSON_DIR",
            "MG_CACHE",
            "MG_CACHE_DIR",
            "MG_FAULT_PROFILE",
            "MG_FAULT_SEED",
            "MG_MEDIUM_INDEX",
        ];
        let saved: Vec<_> = vars.iter().map(|v| (*v, std::env::var_os(v))).collect();
        for v in vars {
            std::env::remove_var(v);
        }

        assert_eq!(BenchConfig::from_env(), Ok(BenchConfig::default()));

        std::env::set_var("MG_TRIALS", "3");
        std::env::set_var("MG_SIM_SECS", "45");
        std::env::set_var("MG_CSV_DIR", "out/csv");
        std::env::set_var("MG_CACHE", "off");
        std::env::set_var("MG_CACHE_DIR", "out/cache");
        let cfg = BenchConfig::from_env().expect("valid env parses");
        assert_eq!(cfg.trials, 3);
        assert_eq!(cfg.sim_secs, 45);
        assert_eq!(cfg.csv_dir.as_deref(), Some(std::path::Path::new("out/csv")));
        assert_eq!(cfg.json_dir, None);
        assert_eq!(cfg.cache_mode, CacheMode::Off);
        assert_eq!(cfg.cache_dir, PathBuf::from("out/cache"));

        std::env::set_var("MG_TRIALS", "8x");
        let err = BenchConfig::from_env().unwrap_err();
        assert!(err.contains("MG_TRIALS") && err.contains("8x"), "{err}");
        std::env::set_var("MG_TRIALS", "0");
        assert!(BenchConfig::from_env().unwrap_err().contains("MG_TRIALS"));
        std::env::set_var("MG_TRIALS", "3");

        std::env::set_var("MG_SIM_SECS", "18446744074");
        let err = BenchConfig::from_env().unwrap_err();
        assert!(err.contains("MG_SIM_SECS") && err.contains("18446744074"), "{err}");
        std::env::set_var("MG_SIM_SECS", "18446744073");
        assert_eq!(BenchConfig::from_env().expect("largest valid secs").sim_secs, SimTime::MAX_SECS);
        std::env::set_var("MG_SIM_SECS", "45");

        std::env::set_var("MG_CACHE", "sometimes");
        let err = BenchConfig::from_env().unwrap_err();
        assert!(err.contains("MG_CACHE"), "{err}");
        std::env::set_var("MG_CACHE", "on");

        std::env::set_var("MG_FAULT_PROFILE", "seed=7,loss=0.25,panic=2");
        std::env::set_var("MG_FAULT_SEED", "99");
        let cfg = BenchConfig::from_env().expect("valid fault profile parses");
        assert_eq!(cfg.fault.seed, 99, "MG_FAULT_SEED overrides the spec seed");
        assert!((cfg.fault.phy.loss - 0.25).abs() < 1e-12);
        assert!(cfg.fault.runner.panics(2));
        assert!(!cfg.fault.is_noop());

        std::env::set_var("MG_FAULT_PROFILE", "loss=nope");
        let err = BenchConfig::from_env().unwrap_err();
        assert!(err.contains("MG_FAULT_PROFILE") && err.contains("nope"), "{err}");
        std::env::set_var("MG_FAULT_PROFILE", "light");
        std::env::set_var("MG_FAULT_SEED", "8x");
        let err = BenchConfig::from_env().unwrap_err();
        assert!(err.contains("MG_FAULT_SEED") && err.contains("8x"), "{err}");
        std::env::set_var("MG_FAULT_SEED", "99");

        std::env::set_var("MG_MEDIUM_INDEX", "Naive");
        let cfg = BenchConfig::from_env().expect("case-insensitive index parses");
        assert_eq!(cfg.medium_index, MediumIndex::Naive);
        std::env::set_var("MG_MEDIUM_INDEX", "quadtree");
        let err = BenchConfig::from_env().unwrap_err();
        assert!(err.contains("MG_MEDIUM_INDEX") && err.contains("quadtree"), "{err}");

        for (name, value) in saved {
            match value {
                Some(v) => std::env::set_var(name, v),
                None => std::env::remove_var(name),
            }
        }
    }
}
