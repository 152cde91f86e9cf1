//! The `repro` command line, end to end: flags are the one way to configure
//! a live run, every bad value is a usage error (exit 2, naming the flag)
//! rather than a panic or a quietly wrong run, any `HSIPC_*` variable
//! outside the two knobs is refused, and so is a knob value its parser
//! rejects.

use std::process::{Command, Output};

/// Runs `repro` with `args`, with every inherited `HSIPC_*` variable
/// removed and `env` set instead.
fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("HSIPC_") {
            cmd.env_remove(name);
        }
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("repro runs")
}

/// Asserts `repro args` is a usage error, before anything ran, whose
/// message contains `needle`.
fn rejected(args: &[&str], needle: &str) {
    let out = repro(args, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: `{stderr}` lacks `{needle}`"
    );
    assert!(out.stdout.is_empty(), "{args:?} ran before it was rejected");
}

/// Asserts `repro args` succeeds and returns its stdout.
fn accepted(args: &[&str]) -> String {
    let out = repro(args, &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// [`accepted`] over a whitespace-separated command line.
fn accepted_line(line: &str) -> String {
    accepted(&line.split_whitespace().collect::<Vec<_>>())
}

#[test]
fn malformed_values_error_instead_of_defaulting() {
    for (flag, value, needle) in [
        ("--nodes", "three", "--nodes: bad value"),
        ("--nodes", "0", "nodes must be at least 1"),
        ("--conversations", "-5", "--conversations: bad value"),
        ("--conversations", "0", "conversations must be at least 1"),
        ("--conversations", "40000", "conversations: 2 x 40000 tasks"),
        ("--duration-ms", "soon", "--duration-ms: bad value"),
        ("--server-compute-us", "slow", "--server-compute-us: bad"),
        ("--server-compute-us", "-10", "server-compute-us must be"),
        ("--server-compute-us", "inf", "server-compute-us must be"),
        ("--buffers", "0", "buffers must be at least 1"),
        ("--buffers", "70000", "--buffers: bad value"),
        ("--clock", "wall", "--clock: unknown clock mode"),
        ("--arch", "V", "--arch: unknown architecture"),
    ] {
        rejected(&["live", "--clock", "virtual", flag, value], needle);
    }
    // `--flag=value` is the same flag; a missing value is named too.
    rejected(&["live", "--nodes=0"], "nodes must be at least 1");
    rejected(&["live", "--nodes"], "--nodes needs a value");
}

#[test]
fn malformed_sweep_lists_error() {
    for (flag, value, needle) in [
        ("--x-list", "570,,1140", "--x-list: empty item"),
        ("--x-list", "570, ", "--x-list: empty item"),
        ("--x-list", "570,slow", "--x-list: bad value"),
        ("--x-list", "-1", "server-compute-us must be a non-negative"),
        (
            "--conversations-list",
            "4,0",
            "conversations must be at least 1",
        ),
        ("--buffers-list", "32,many", "--buffers-list: bad value"),
        ("--buffers-list", "1,0", "buffers must be at least 1"),
        ("--nodes", "0", "nodes must be at least 1"),
        ("--arch", "V", "--arch: unknown architecture"),
    ] {
        rejected(&["live-sweep", flag, value], needle);
    }
}

#[test]
fn unknown_flags_are_rejected() {
    rejected(&["live", "--bogus"], "unknown flag `--bogus`");
    // The files these used to suppress are gone, and so is the flag.
    rejected(&["live", "--no-json"], "unknown flag `--no-json`");
    rejected(&["live-sweep", "--no-json"], "unknown flag `--no-json`");
    // Each command takes only its own flags.
    rejected(
        &["live-sweep", "--clock", "virtual"],
        "unknown flag `--clock`",
    );
    rejected(&["live", "--x-list", "0"], "unknown flag `--x-list`");
    // Activity times are the paper's: there is no factor on them.
    for command in ["live", "live-sweep"] {
        rejected(&[command, "--scale", "0.5"], "unknown flag `--scale`");
    }
}

#[test]
fn unset_flags_keep_the_defaults() {
    let out = accepted_line("live --clock virtual --duration-ms 10");
    let header = "live runtime: 64 conversation(s)/node x 1 node(s), local traffic, \
                  X = 1140 us, 10 ms load, virtual clock";
    assert_eq!(out.lines().next(), Some(header), "{out}");
}

#[test]
fn well_formed_values_apply() {
    let out = accepted(&[
        "live",
        "--clock=virtual",
        "--arch=II",
        "--nodes=2",
        "--conversations",
        " 3 ",
        "--duration-ms=20",
        "--server-compute-us=5700",
        "--buffers=16",
        "--remote",
    ]);
    let header = "live runtime: 3 conversation(s)/node x 2 node(s), non-local traffic, \
                  X = 5700 us, 20 ms load, virtual clock";
    assert_eq!(out.lines().next(), Some(header), "{out}");
    let rows: Vec<&str> = out.lines().skip(2).collect();
    assert!(rows.len() == 1 && rows[0].starts_with("II "), "{out}");
    // Non-local traffic on the default single node runs on two.
    let out =
        accepted_line("live --clock virtual --arch I --remote --conversations 1 --duration-ms 20");
    assert!(out.contains("x 2 node(s), non-local traffic"), "{out}");
}

#[test]
fn zero_server_compute_is_the_max_load_point() {
    let out = accepted_line(
        "live --clock virtual --arch I --conversations 1 --server-compute-us 0 --duration-ms 5",
    );
    assert!(out.contains(", X = 0 us,"), "{out}");
}

#[test]
fn arch_selections_parse() {
    let rows = |arch: &str| -> Vec<String> {
        let line = format!("live --clock virtual --arch {arch} --conversations 1 --duration-ms 5");
        let out = accepted_line(&line);
        let label = |row: &str| row.split_whitespace().next().unwrap().to_string();
        out.lines().skip(2).map(label).collect()
    };
    assert_eq!(rows("all"), ["I", "II", "III", "IV"]);
    assert_eq!(rows("3"), ["III"]);
    assert_eq!(rows("IV"), ["IV"]);
}

#[test]
fn sweep_lists_parse() {
    let out = accepted(&[
        "live-sweep",
        "--arch=IV",
        "--x-list=0, 570",
        "--conversations-list=1",
        "--buffers-list",
        " 1, 2 ",
        "--duration-ms=20",
    ]);
    let header = "live-sweep: arch IV x 2 X-point(s), 1 node(s), local traffic, \
                  20 ms virtual load";
    assert_eq!(out.lines().next(), Some(header), "{out}");
    for buffers in [1, 2] {
        let section = format!("\nconversations 1/node, buffers {buffers}:\n");
        assert!(out.contains(&section), "{out}");
    }
    assert_eq!(out.lines().filter(|l| l.starts_with("IV ")).count(), 4);
}

#[test]
fn unknown_live_variable_is_a_typo_error() {
    let refused = |var: &str, needle: &str| {
        let out = repro(&["list"], &[(var, "4")]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}: {stderr}");
        assert!(stderr.contains(var), "{var}: `{stderr}` does not name it");
        assert!(
            stderr.contains(needle),
            "{var}: `{stderr}` lacks `{needle}`"
        );
    };
    // A typo, the deleted live-run variables and the deleted solver and
    // cache switches are refused with the list of knobs that remain.
    for var in [
        "HSIPC_LIVE_NODES",
        "HSIPC_LIVE_SERVER_COMPUTE_US",
        "HSIPC_LIVE_SWEEP_X_LIST",
        "HSIPC_LIVE_SWEEP_CONVERSATIONS",
        "HSIPC_LIVE_CONVERSATION",
        "HSIPC_LIVE_HANDOFF",
        "HSIPC_LIVE_SCALE",
        "HSIPC_PAR_SOLVE",
        "HSIPC_WARM_START",
        "HSIPC_LUMP",
        "HSIPC_SWEEP_THREADS",
        "HSIPC_CACHE_MB",
        "HSIPC_BACKEND",
    ] {
        refused(var, "is not a knob");
    }
    // A value the deleted knob once accepted is refused too.
    let backend = repro(&["list"], &[("HSIPC_BACKEND", "exact")]);
    assert_eq!(backend.status.code(), Some(2));
    // The two knobs are read, not refused.
    for (var, value) in [("HSIPC_SWEEP", "4"), ("HSIPC_CACHE_CAP", "4")] {
        assert!(repro(&["list"], &[(var, value)]).status.success(), "{var}");
    }
}

#[test]
fn malformed_knob_values_error_instead_of_defaulting() {
    for (var, value, accepted) in [
        ("HSIPC_CACHE_CAP", "zero", "a whole number"),
        ("HSIPC_CACHE_CAP", "-1", "a whole number"),
        ("HSIPC_CACHE_CAP", "", "a whole number"),
        (
            "HSIPC_SWEEP",
            "foo",
            "a positive number, `seq` or `sequential`",
        ),
    ] {
        let out = repro(&["list"], &[(var, value)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value:?}: {stderr}");
        assert!(
            stderr.contains(&format!("{var}=`{value}`")) && stderr.contains(accepted),
            "{var}={value:?}: `{stderr}` does not name the variable and what it accepts"
        );
        assert!(
            out.stdout.is_empty(),
            "{var}={value:?} ran before it was rejected"
        );
    }
}
