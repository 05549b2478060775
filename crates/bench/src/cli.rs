//! Tiny shared CLI helpers for the `src/bin` experiment binaries.
//!
//! Every binary accepts the same three flags — `--quick`, `--seed N` and
//! `--threads N` — parsed here so the bins stay thin and agree on
//! defaults. `--threads 1` (the default) leaves the engine configuration
//! untouched and therefore reproduces the sequential numbers exactly.

use amri_core::TunerKind;
use amri_engine::EngineConfig;
use amri_synth::scenario::Scale;
use std::fmt::Write as _;
use std::num::NonZeroUsize;
use std::str::FromStr;

/// One flag an experiment binary accepts: `(--name, takes a value,
/// one-line description)`.
pub type FlagSpec = (&'static str, bool, &'static str);

/// The three flags every binary shares (see the module docs).
pub const COMMON_FLAGS: &[FlagSpec] = &[
    ("--quick", false, "quick scale instead of full paper scale"),
    ("--seed", true, "master seed (default 42)"),
    (
        "--threads",
        true,
        "worker threads for sharded index execution (default 1)",
    ),
];

/// Render the canonical usage banner for `bin` over its flag table.
pub fn usage(bin: &str, flags: &[FlagSpec]) -> String {
    let mut s = format!("usage: {bin} [options]\n\noptions:\n");
    for (name, takes_value, help) in flags {
        let left = if *takes_value {
            format!("{name} N")
        } else {
            (*name).to_string()
        };
        let _ = writeln!(s, "  {left:<22}{help}");
    }
    let _ = writeln!(s, "  {:<22}print this help and exit", "-h, --help");
    s
}

/// True if the user asked for help.
pub fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Scan `args` (argv, program name first) against the flag table:
/// anything not in the table — and not a value consumed by a
/// value-taking flag — is an error naming the offender, and so is a
/// value-taking flag with nothing after it. Typo'd flags silently falling
/// through to defaults is how an experiment quietly runs the wrong
/// configuration.
///
/// # Errors
/// The first unknown argument or operand-less value flag, as a
/// human-readable message.
pub fn check_args(args: &[String], flags: &[FlagSpec]) -> Result<(), String> {
    let mut i = 1;
    while i < args.len() {
        let a = &args[i];
        match flags.iter().find(|(name, ..)| name == a) {
            Some((_, true, _)) if i + 1 == args.len() => {
                return Err(format!("`{a}` needs a value"))
            }
            Some((_, true, _)) => i += 2, // flag + its value
            Some(_) => i += 1,
            None if a == "--help" || a == "-h" => i += 1,
            None => return Err(format!("unknown argument `{a}`")),
        }
    }
    Ok(())
}

/// The shared front door for every experiment binary's `main`: print the
/// usage banner and exit 0 on `--help`/`-h`, or report the first unknown
/// argument with the banner on stderr and exit 2. Returns normally only
/// when the argument vector is clean.
pub fn enforce_cli(args: &[String], bin: &str, flags: &[FlagSpec]) {
    if wants_help(args) {
        print!("{}", usage(bin, flags));
        std::process::exit(0);
    }
    if let Err(e) = check_args(args, flags) {
        eprintln!("{bin}: {e}");
        eprint!("{}", usage(bin, flags));
        std::process::exit(2);
    }
}

/// `--quick` selects [`Scale::Quick`]; otherwise [`Scale::Paper`].
pub fn parse_scale(args: &[String]) -> Scale {
    if args.iter().any(|a| a == "--quick") {
        Scale::Quick
    } else {
        Scale::Paper
    }
}

/// The operand of value flag `flag`: `Ok(None)` when the flag is absent.
///
/// # Errors
/// A message naming the flag and the offending operand when the operand
/// is missing or does not parse — a seed that silently fell back to 42
/// would report "green" for a run nobody asked for.
pub fn operand<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("`{flag}` needs a value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("`{flag}`: malformed value `{raw}`"))
}

/// [`operand`] for a binary's `main`: a missing or malformed operand is
/// reported on stderr and exits 2, like an unknown flag.
pub fn parse_operand<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    operand(args, flag).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// `--seed N` (default 42).
pub fn parse_seed(args: &[String]) -> u64 {
    parse_operand(args, "--seed").unwrap_or(42)
}

/// `--threads N` (default 1): worker threads for sharded index execution.
pub fn parse_threads(args: &[String]) -> NonZeroUsize {
    parse_operand(args, "--threads").unwrap_or(NonZeroUsize::MIN)
}

/// `--checkpoint-every N` (default off): snapshot the run every N
/// pipeline steps. `0` disables checkpointing, same as omitting the flag
/// — checkpointing is a pure observer either way.
pub fn parse_checkpoint_every(args: &[String]) -> Option<u64> {
    parse_operand(args, "--checkpoint-every").filter(|&n: &u64| n > 0)
}

/// The `--spill-cache N` flag spec, shared by the spill-bearing binaries.
pub const SPILL_CACHE_FLAG: FlagSpec = (
    "--spill-cache",
    true,
    "spill-tier block cache budget in bytes (default 0: no spill tier)",
);

/// `--spill-cache N` (default 0): byte budget for the spill tier's
/// decoded-block cache; `0` attaches no tier.
pub fn parse_spill_cache(args: &[String]) -> u64 {
    parse_operand(args, "--spill-cache").unwrap_or(0)
}

/// The `--tuner {paper,bandit,static}` flag spec, shared by the binaries
/// whose AMRI runs accept a tuning-policy override.
pub const TUNER_FLAG: FlagSpec = (
    "--tuner",
    true,
    "AMRI tuning policy: paper, bandit or static (default paper)",
);

/// `--tuner K` (default [`TunerKind::Paper`]). A malformed policy name is
/// a hard error: silently tuning with the wrong policy would invalidate
/// the whole experiment.
pub fn parse_tuner(args: &[String]) -> TunerKind {
    match parse_operand::<String>(args, "--tuner") {
        None => TunerKind::default(),
        Some(s) => TunerKind::parse(&s).unwrap_or_else(|| {
            eprintln!("unknown tuner policy `{s}` (expected paper, bandit or static)");
            std::process::exit(2);
        }),
    }
}

/// Point an engine configuration at `threads` workers: parallelism is the
/// thread count and the arena is split into the next power of two ≥ that
/// many shards so every worker owns at least one shard. One thread leaves
/// the configuration at its defaults — the byte-exact sequential path.
pub fn apply_threads(engine: &mut EngineConfig, threads: NonZeroUsize) {
    engine.parallelism = threads;
    engine.shards = threads.get().next_power_of_two();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn flags_parse_with_defaults() {
        let args = argv(&["bin", "--quick", "--seed", "7", "--threads", "4"]);
        assert_eq!(parse_scale(&args), Scale::Quick);
        assert_eq!(parse_seed(&args), 7);
        assert_eq!(parse_threads(&args).get(), 4);
        let bare = argv(&["bin"]);
        assert_eq!(parse_scale(&bare), Scale::Paper);
        assert_eq!(parse_seed(&bare), 42);
        assert_eq!(parse_threads(&bare).get(), 1);
        // A malformed or missing operand is an error naming the flag and
        // the offender, never the default.
        let bad = argv(&["bin", "--threads", "zero", "--seed"]);
        assert_eq!(
            operand::<NonZeroUsize>(&bad, "--threads"),
            Err("`--threads`: malformed value `zero`".to_string())
        );
        assert_eq!(
            operand::<u64>(&bad, "--seed"),
            Err("`--seed` needs a value".to_string())
        );
        assert_eq!(
            operand::<u64>(&argv(&["bin", "--seed", "1x"]), "--seed"),
            Err("`--seed`: malformed value `1x`".to_string())
        );
    }

    #[test]
    fn checkpoint_every_parses_and_defaults_off() {
        assert_eq!(
            parse_checkpoint_every(&argv(&["bin", "--checkpoint-every", "500"])),
            Some(500)
        );
        assert_eq!(parse_checkpoint_every(&argv(&["bin"])), None);
        assert_eq!(
            parse_checkpoint_every(&argv(&["bin", "--checkpoint-every", "0"])),
            None,
            "zero disables the periodic trigger"
        );
        assert_eq!(
            operand::<u64>(
                &argv(&["bin", "--checkpoint-every", "lots"]),
                "--checkpoint-every"
            ),
            Err("`--checkpoint-every`: malformed value `lots`".to_string())
        );
    }

    #[test]
    fn spill_cache_parses_and_defaults_off() {
        assert_eq!(
            parse_spill_cache(&argv(&["bin", "--spill-cache", "1048576"])),
            1_048_576
        );
        assert_eq!(parse_spill_cache(&argv(&["bin"])), 0);
        assert_eq!(
            operand::<u64>(&argv(&["bin", "--spill-cache", "big"]), "--spill-cache"),
            Err("`--spill-cache`: malformed value `big`".to_string()),
            "a malformed budget must not silently keep the cache off"
        );
    }

    #[test]
    fn tuner_flag_parses_all_policies_and_defaults_to_paper() {
        assert_eq!(parse_tuner(&argv(&["bin"])), TunerKind::Paper);
        assert_eq!(
            parse_tuner(&argv(&["bin", "--tuner", "paper"])),
            TunerKind::Paper
        );
        assert_eq!(
            parse_tuner(&argv(&["bin", "--tuner", "bandit"])),
            TunerKind::Bandit
        );
        assert_eq!(
            parse_tuner(&argv(&["bin", "--tuner", "static"])),
            TunerKind::Static
        );
    }

    #[test]
    fn unknown_arguments_are_named_and_values_are_consumed() {
        let flags: &[FlagSpec] = &[
            ("--quick", false, "quick scale"),
            ("--seed", true, "seed"),
            ("--out", true, "output dir"),
        ];
        assert_eq!(
            check_args(&argv(&["bin", "--seed", "7", "--quick"]), flags),
            Ok(())
        );
        // A value-taking flag's operand is not itself checked…
        assert_eq!(
            check_args(&argv(&["bin", "--out", "--weird-dir"]), flags),
            Ok(())
        );
        // …but a bare unknown flag is an error naming the offender.
        assert_eq!(
            check_args(&argv(&["bin", "--quick", "--sede", "7"]), flags),
            Err("unknown argument `--sede`".to_string())
        );
        // A value flag at the end of argv has no operand to consume.
        assert_eq!(
            check_args(&argv(&["bin", "--quick", "--seed"]), flags),
            Err("`--seed` needs a value".to_string())
        );
        // Help tokens are always accepted.
        assert_eq!(check_args(&argv(&["bin", "-h"]), flags), Ok(()));
        assert!(wants_help(&argv(&["bin", "--help"])));
        assert!(!wants_help(&argv(&["bin", "--quick"])));
    }

    #[test]
    fn usage_banner_lists_every_flag_and_help() {
        let banner = usage("tuner_duel", COMMON_FLAGS);
        assert!(banner.starts_with("usage: tuner_duel [options]"));
        for (name, ..) in COMMON_FLAGS {
            assert!(banner.contains(name), "banner must list {name}");
        }
        assert!(banner.contains("--seed N"), "value flags show an operand");
        assert!(banner.contains("-h, --help"));
    }

    #[test]
    fn apply_threads_shapes_the_engine_config() {
        let mut sc = amri_synth::scenario::paper_scenario(Scale::Quick, 1);
        apply_threads(&mut sc.engine, NonZeroUsize::MIN);
        assert_eq!(sc.engine.shards, 1, "one thread keeps the defaults");
        assert_eq!(sc.engine.parallelism.get(), 1);
        apply_threads(&mut sc.engine, NonZeroUsize::new(3).unwrap());
        assert_eq!(sc.engine.shards, 4, "shards round up to a power of two");
        assert_eq!(sc.engine.parallelism.get(), 3);
    }
}
