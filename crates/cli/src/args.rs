//! Minimal hand-rolled argument parsing (no external CLI crates in the
//! approved dependency set).

use antidote_core::DomainKind;
use antidote_data::{Benchmark, Scale};
use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs, last occurrence wins.
    pub options: BTreeMap<String, String>,
}

/// A user-facing CLI error.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl Args {
    /// Boolean flags: present or absent, never followed by a value.
    const BOOL_FLAGS: &'static [&'static str] = &[
        "no-cache",
        "no-subsume",
        "no-memo",
        "no-simd",
        "no-schedule",
        "no-transfer",
        "no-share",
        "list",
    ];

    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] on a missing subcommand, an option without a
    /// value, or a stray positional argument.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, CliError> {
        let mut it = argv.into_iter();
        let command = it
            .next()
            .ok_or_else(|| CliError("missing subcommand".into()))?;
        let mut options = BTreeMap::new();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(CliError(format!("unexpected positional argument '{arg}'")));
            };
            if Self::BOOL_FLAGS.contains(&key) {
                options.insert(key.to_string(), "true".to_string());
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| CliError(format!("option --{key} needs a value")))?;
            options.insert(key.to_string(), value);
        }
        Ok(Args { command, options })
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when the value does not parse.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError(format!("--{key}: cannot parse '{v}'"))),
        }
    }

    /// The benchmark named by `--dataset` (default `iris`).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for an unknown dataset id.
    pub fn benchmark(&self) -> Result<Benchmark, CliError> {
        let id = self.get_or("dataset", "iris");
        Benchmark::from_id(id).ok_or_else(|| {
            let ids: Vec<&str> = Benchmark::ALL.iter().map(|b| b.id()).collect();
            CliError(format!(
                "unknown dataset '{id}'; expected one of {}",
                ids.join(", ")
            ))
        })
    }

    /// The scale named by `--scale` (default `small`).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for an unknown scale.
    pub fn scale(&self) -> Result<Scale, CliError> {
        match self.get_or("scale", "small") {
            "small" => Ok(Scale::Small),
            "paper" => Ok(Scale::Paper),
            other => Err(CliError(format!(
                "unknown scale '{other}'; expected small|paper"
            ))),
        }
    }

    /// The domain named by `--domain` (default `box`): `box`, `disjuncts`,
    /// or `hybridK` (e.g. `hybrid64`).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] for an unknown domain.
    pub fn domain(&self) -> Result<DomainKind, CliError> {
        parse_domain(self.get_or("domain", "box"))
    }

    /// The engine worker count named by `--threads` (flag absent = all
    /// available cores; 1 = strictly sequential).
    ///
    /// # Errors
    ///
    /// Returns [`CliError`] when the value does not parse, or when the
    /// user explicitly passes `--threads 0`: the engine reads 0 as "all
    /// cores", but someone *typing* 0 almost certainly expected it to
    /// mean something ("no parallelism"? an error?), so the ambiguity is
    /// rejected here rather than silently resolved.
    pub fn threads(&self) -> Result<usize, CliError> {
        let threads = self.get_num("threads", 0usize)?;
        if threads == 0 && self.options.contains_key("threads") {
            return Err(CliError(
                "--threads must be >= 1 (omit the flag to use all available cores)".into(),
            ));
        }
        Ok(threads)
    }

    /// The comma-separated scenario filter named by `--scenarios`, if
    /// given (e.g. `--scenarios blobs,onehot`). Surrounding whitespace
    /// and empty segments are dropped; name validation happens against
    /// the registry.
    pub fn scenarios(&self) -> Option<Vec<String>> {
        self.options.get("scenarios").map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect()
        })
    }

    /// Whether `--list` was given (matrix: print the registered
    /// scenarios instead of running the grid).
    pub fn list(&self) -> bool {
        self.options.contains_key("list")
    }

    /// Whether `--no-cache` was given: disables the cross-rung
    /// certification cache and re-derives every probe from scratch.
    pub fn no_cache(&self) -> bool {
        self.options.contains_key("no-cache")
    }

    /// Whether `--no-subsume` was given: disables frontier subsumption
    /// pruning in the abstract runs (the escape hatch mirroring
    /// `--no-cache`).
    pub fn no_subsume(&self) -> bool {
        self.options.contains_key("no-subsume")
    }

    /// Whether `--no-memo` was given: disables the per-certify-call
    /// `bestSplit#` memo, re-running the scored-candidates sweep for
    /// every frontier disjunct (the escape hatch mirroring
    /// `--no-cache`/`--no-subsume`).
    pub fn no_memo(&self) -> bool {
        self.options.contains_key("no-memo")
    }

    /// Whether `--no-simd` was given: disarms the chunked SIMD word
    /// kernels, routing the subset algebra through the bit-identical
    /// scalar fallback (the escape hatch mirroring
    /// `--no-cache`/`--no-subsume`/`--no-memo`).
    pub fn no_simd(&self) -> bool {
        self.options.contains_key("no-simd")
    }

    /// Whether `--no-schedule` was given: disarms the adaptive probe
    /// scheduler, restoring the fixed §6.1 rung order with no shared
    /// ladder deadline/budget and no interval tightening (the escape
    /// hatch mirroring `--no-cache`; absent a binding deadline, ladders
    /// are bit-identical either way).
    pub fn no_schedule(&self) -> bool {
        self.options.contains_key("no-schedule")
    }

    /// Whether `--no-transfer` was given: disables cross-epoch
    /// certificate transfer in `antidote drift`, re-certifying every
    /// epoch from a cold cache (the escape hatch mirroring
    /// `--no-cache`; verdicts must be bit-identical either way).
    pub fn no_transfer(&self) -> bool {
        self.options.contains_key("no-transfer")
    }

    /// Whether `--no-share` was given: disables cross-session
    /// warm-state sharing in `antidote serve`, giving every loaded
    /// handle a private warm unit even when another handle certifies
    /// the identical dataset snapshot under the identical config
    /// (responses are byte-identical either way; the escape hatch
    /// mirroring `--no-cache`).
    pub fn no_share(&self) -> bool {
        self.options.contains_key("no-share")
    }
}

/// Parses a domain identifier.
///
/// # Errors
///
/// Returns [`CliError`] for an unknown identifier.
pub fn parse_domain(s: &str) -> Result<DomainKind, CliError> {
    match s {
        "box" => Ok(DomainKind::Box),
        "disjuncts" => Ok(DomainKind::Disjuncts),
        other => {
            if let Some(k) = other.strip_prefix("hybrid") {
                let k: usize = k
                    .parse()
                    .map_err(|_| CliError(format!("bad hybrid budget in '{other}'")))?;
                Ok(DomainKind::Hybrid {
                    max_disjuncts: k.max(1),
                })
            } else {
                Err(CliError(format!(
                    "unknown domain '{other}'; expected box|disjuncts|hybridK"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_and_options() {
        let a = Args::parse(argv("certify --dataset wdbc --n 4 --depth 2")).unwrap();
        assert_eq!(a.command, "certify");
        assert_eq!(a.get_or("dataset", "iris"), "wdbc");
        assert_eq!(a.get_num("n", 0usize).unwrap(), 4);
        assert_eq!(a.get_num("depth", 1usize).unwrap(), 2);
        assert_eq!(a.get_num("missing", 7usize).unwrap(), 7);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Args::parse(argv("")).is_err());
        assert!(Args::parse(argv("certify stray")).is_err());
        assert!(Args::parse(argv("certify --n")).is_err());
        let a = Args::parse(argv("certify --n abc")).unwrap();
        assert!(a.get_num("n", 0usize).is_err());
    }

    #[test]
    fn dataset_and_scale_and_domain() {
        let a = Args::parse(argv(
            "x --dataset mnist17-binary --scale paper --domain hybrid32",
        ))
        .unwrap();
        assert_eq!(a.benchmark().unwrap(), Benchmark::Mnist17Binary);
        assert_eq!(a.scale().unwrap(), Scale::Paper);
        assert_eq!(
            a.domain().unwrap(),
            DomainKind::Hybrid { max_disjuncts: 32 }
        );
        assert!(parse_domain("disjuncts").is_ok());
        assert!(parse_domain("boxy").is_err());
        assert!(parse_domain("hybrid").is_err());
    }

    #[test]
    fn defaults() {
        let a = Args::parse(argv("sweep")).unwrap();
        assert_eq!(a.benchmark().unwrap(), Benchmark::Iris);
        assert_eq!(a.scale().unwrap(), Scale::Small);
        assert_eq!(a.domain().unwrap(), DomainKind::Box);
        assert_eq!(a.threads().unwrap(), 0, "default = all cores");
    }

    #[test]
    fn threads_flag() {
        let a = Args::parse(argv("sweep --threads 4")).unwrap();
        assert_eq!(a.threads().unwrap(), 4);
        let a = Args::parse(argv("sweep --threads 1")).unwrap();
        assert_eq!(a.threads().unwrap(), 1);
        let a = Args::parse(argv("sweep --threads nope")).unwrap();
        assert!(a.threads().is_err());
    }

    #[test]
    fn explicit_threads_zero_is_a_proper_error() {
        // Regression: `--threads 0` used to fall through to the engine,
        // which silently reads 0 as "all cores" — the opposite of what a
        // user typing 0 plausibly meant. An explicit 0 is now rejected
        // with an actionable message; an absent flag still defaults to 0
        // (all cores) internally.
        for cmd in [
            "sweep --threads 0",
            "matrix --threads 0",
            "certify --threads 0",
        ] {
            let a = Args::parse(argv(cmd)).unwrap();
            let err = a.threads().unwrap_err();
            assert!(
                err.to_string().contains("--threads must be >= 1"),
                "{cmd}: {err}"
            );
            assert!(err.to_string().contains("omit the flag"), "{cmd}");
        }
        assert_eq!(Args::parse(argv("sweep")).unwrap().threads().unwrap(), 0);
    }

    #[test]
    fn scenarios_filter_parses() {
        let a = Args::parse(argv("matrix")).unwrap();
        assert_eq!(a.scenarios(), None, "absent filter runs everything");
        let a = Args::parse(argv("matrix --scenarios blobs,onehot")).unwrap();
        assert_eq!(
            a.scenarios(),
            Some(vec!["blobs".to_string(), "onehot".to_string()])
        );
        let a = Args::parse(argv("matrix --scenarios blobs")).unwrap();
        assert_eq!(a.scenarios(), Some(vec!["blobs".to_string()]));
        // Stray commas and whitespace are tolerated.
        let a = Args::parse(vec![
            "matrix".into(),
            "--scenarios".into(),
            " blobs, ,moons,".into(),
        ]);
        assert_eq!(
            a.unwrap().scenarios(),
            Some(vec!["blobs".to_string(), "moons".to_string()])
        );
    }

    #[test]
    fn list_flag_takes_no_value() {
        let a = Args::parse(argv("matrix --list")).unwrap();
        assert!(a.list());
        assert!(!Args::parse(argv("matrix")).unwrap().list());
        assert!(Args::parse(argv("matrix --list true")).is_err());
    }

    #[test]
    fn no_cache_flag_takes_no_value() {
        let a = Args::parse(argv("sweep")).unwrap();
        assert!(!a.no_cache(), "cache is on by default");
        let a = Args::parse(argv("sweep --no-cache")).unwrap();
        assert!(a.no_cache());
        // The flag composes with value options on either side.
        let a = Args::parse(argv("sweep --no-cache --threads 2")).unwrap();
        assert!(a.no_cache());
        assert_eq!(a.threads().unwrap(), 2);
        let a = Args::parse(argv("sweep --threads 2 --no-cache")).unwrap();
        assert!(a.no_cache());
        // A stray value after the flag is still a positional error.
        assert!(Args::parse(argv("sweep --no-cache true")).is_err());
    }

    #[test]
    fn no_subsume_flag_takes_no_value() {
        let a = Args::parse(argv("sweep")).unwrap();
        assert!(!a.no_subsume(), "subsumption pruning is on by default");
        let a = Args::parse(argv("sweep --no-subsume")).unwrap();
        assert!(a.no_subsume());
        // Composes with the sibling escape hatch and value options.
        let a = Args::parse(argv("sweep --no-cache --no-subsume --threads 2")).unwrap();
        assert!(a.no_cache() && a.no_subsume());
        assert_eq!(a.threads().unwrap(), 2);
        assert!(Args::parse(argv("sweep --no-subsume true")).is_err());
    }

    #[test]
    fn no_memo_flag_takes_no_value() {
        let a = Args::parse(argv("sweep")).unwrap();
        assert!(!a.no_memo(), "the bestSplit# memo is on by default");
        let a = Args::parse(argv("sweep --no-memo")).unwrap();
        assert!(a.no_memo());
        // All three escape hatches compose.
        let a = Args::parse(argv("sweep --no-cache --no-subsume --no-memo --threads 2")).unwrap();
        assert!(a.no_cache() && a.no_subsume() && a.no_memo());
        assert_eq!(a.threads().unwrap(), 2);
        assert!(Args::parse(argv("sweep --no-memo true")).is_err());
    }

    #[test]
    fn no_simd_flag_takes_no_value() {
        let a = Args::parse(argv("sweep")).unwrap();
        assert!(!a.no_simd(), "the SIMD kernels are armed by default");
        let a = Args::parse(argv("sweep --no-simd")).unwrap();
        assert!(a.no_simd());
        // All four escape hatches compose.
        let a = Args::parse(argv(
            "sweep --no-cache --no-subsume --no-memo --no-simd --threads 2",
        ))
        .unwrap();
        assert!(a.no_cache() && a.no_subsume() && a.no_memo() && a.no_simd());
        assert_eq!(a.threads().unwrap(), 2);
        assert!(Args::parse(argv("sweep --no-simd true")).is_err());
    }

    #[test]
    fn no_schedule_flag_takes_no_value() {
        let a = Args::parse(argv("sweep")).unwrap();
        assert!(!a.no_schedule(), "the probe scheduler is armed by default");
        let a = Args::parse(argv("sweep --no-schedule")).unwrap();
        assert!(a.no_schedule());
        // All five escape hatches compose.
        let a = Args::parse(argv(
            "sweep --no-cache --no-subsume --no-memo --no-simd --no-schedule --threads 2",
        ))
        .unwrap();
        assert!(a.no_cache() && a.no_subsume() && a.no_memo() && a.no_simd() && a.no_schedule());
        assert_eq!(a.threads().unwrap(), 2);
        assert!(Args::parse(argv("sweep --no-schedule true")).is_err());
    }

    #[test]
    fn no_share_flag_takes_no_value() {
        let a = Args::parse(argv("serve")).unwrap();
        assert!(!a.no_share(), "warm-state sharing is on by default");
        let a = Args::parse(argv("serve --no-share")).unwrap();
        assert!(a.no_share());
        // Composes with the service's value options.
        let a = Args::parse(argv("serve --no-share --max-sessions 4 --threads 2")).unwrap();
        assert!(a.no_share());
        assert_eq!(a.get_num("max-sessions", 0usize).unwrap(), 4);
        assert_eq!(a.threads().unwrap(), 2);
        assert!(Args::parse(argv("serve --no-share true")).is_err());
    }

    #[test]
    fn no_transfer_flag_takes_no_value() {
        let a = Args::parse(argv("drift")).unwrap();
        assert!(!a.no_transfer(), "certificate transfer is on by default");
        let a = Args::parse(argv("drift --no-transfer")).unwrap();
        assert!(a.no_transfer());
        // Composes with the sibling escape hatches and value options.
        let a = Args::parse(argv("drift --no-transfer --no-memo --threads 2")).unwrap();
        assert!(a.no_transfer() && a.no_memo());
        assert_eq!(a.threads().unwrap(), 2);
        assert!(Args::parse(argv("drift --no-transfer true")).is_err());
    }
}
