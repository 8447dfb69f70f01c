//! Usage errors exit 2 with `hawkeye: <reason>` and the usage text: a
//! flag the subcommand does not read, a figure id that does not exist,
//! a `dot` kind that has no case study and a removed subcommand. A closed
//! stdout is no error at all, and a closed stderr changes no exit code.

use std::process::{Command, Output, Stdio};

fn hawkeye(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hawkeye"))
        .args(args)
        .env_remove("HAWKEYE_JOBS")
        .output()
        .expect("spawn hawkeye")
}

/// Assert `args` is refused as a usage error whose stderr contains `reason`.
fn refused(args: &[&str], reason: &str) -> String {
    let out = hawkeye(args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2: {err}");
    assert!(
        err.contains(reason),
        "{args:?}: stderr lacks {reason:?}: {err}"
    );
    assert!(
        err.contains("usage:"),
        "{args:?}: stderr lacks usage: {err}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    err
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_refused() {
    refused(
        &[
            "matrix",
            "--durable",
            "/nonexistent",
            "--rates",
            "0.5",
            "--jobs",
            "2",
        ],
        "hawkeye: --durable does not apply to matrix",
    );
    refused(
        &["figure", "fig7", "--rates", "0.1"],
        "hawkeye: --rates does not apply to figure",
    );
    refused(
        &["figure", "fig7", "--bogus"],
        "hawkeye: unknown option '--bogus'",
    );
    refused(
        &[
            "front",
            "--map",
            "m",
            "--socket",
            "s",
            "--client-retries",
            "3",
        ],
        "hawkeye: unknown option '--client-retries'",
    );
    // Gone: line (a) of `figure fig13` is the same resource usage.
    refused(&["resources"], "hawkeye: unknown command 'resources'");
    // Read by no run: a daemon's fabric is the incast one whatever the
    // load and seed, a front's depends only on its kind.
    refused(
        &["serve", "--socket", "s", "--seed", "3"],
        "hawkeye: --seed does not apply to serve",
    );
    refused(
        &["front", "--map", "m", "--socket", "s", "--load", "0.2"],
        "hawkeye: --load does not apply to front",
    );
    // `methods` runs its seven methods on three simulations, one after
    // the other: there is nothing to spread over threads.
    refused(
        &["methods", "incast", "--jobs", "2"],
        "hawkeye: --jobs does not apply to methods",
    );
}

/// `serve` is only the daemon and `replay` only drives one: neither takes
/// the other's flags, and each refuses every combination in which a flag
/// it was given would be read by nothing. Each case is refused
/// before anything binds, connects or simulates.
#[test]
fn serve_and_replay_take_only_their_own_flags() {
    for (args, reason) in [
        (
            &["serve", "--replay", "incast"][..],
            "hawkeye: unknown option '--replay'",
        ),
        (
            &["replay", "incast", "--connect"],
            "hawkeye: unknown option '--connect'",
        ),
        (
            &["serve", "--socket", "s", "--history"],
            "hawkeye: --history does not apply to serve",
        ),
        (
            &["replay", "incast", "--epoch-budget", "2"],
            "hawkeye: --epoch-budget does not apply to replay",
        ),
        (
            &["replay", "incast", "--stream-only"],
            "hawkeye: --stream-only and --query-only drive a running daemon",
        ),
        (
            &[
                "replay",
                "incast",
                "--socket",
                "s",
                "--stream-only",
                "--query-only",
            ],
            "hawkeye: --stream-only and --query-only exclude each other",
        ),
        (
            &[
                "replay",
                "incast",
                "--socket",
                "s",
                "--query-only",
                "--batch",
                "4",
            ],
            "hawkeye: --batch does not apply to --query-only",
        ),
        (
            &[
                "replay",
                "incast",
                "--socket",
                "s",
                "--stream-only",
                "--history",
            ],
            "hawkeye: --history does not apply to --stream-only",
        ),
        (
            &["serve", "--socket", "s", "--fsync", "always"],
            "hawkeye: --fsync needs --durable DIR",
        ),
        (
            &["serve", "--socket", "s", "--map-epoch", "2"],
            "hawkeye: --map-epoch needs --shard LO..HI",
        ),
        (
            &["serve", "--socket", "s", "--tcp", "127.0.0.1:0"],
            "hawkeye: give --socket or --tcp, not both",
        ),
        (
            &["serve"],
            "hawkeye: serve requires --socket PATH or --tcp ADDR",
        ),
        (&["replay"], "hawkeye replay <kind>"),
    ] {
        refused(args, reason);
    }
}

#[test]
fn an_unknown_figure_is_refused_with_the_ids_listed() {
    let err = refused(&["figure", "nope"], "hawkeye: unknown figure 'nope'");
    assert!(
        err.contains("figures: fig7 fig8 fig10 fig12 fig13 fig14 ablations partial-deployment load-sweep all"),
        "usage must list the figure ids: {err}"
    );
    refused(&["figure"], "hawkeye: figure requires an id");
}

#[test]
fn dot_without_a_case_study_is_refused() {
    refused(
        &["dot", "oolc"],
        "no case study for out-of-loop-deadlock-contention; dot draws incast storm inloop oolinj",
    );
    let out = hawkeye(&["dot", "incast"]);
    assert!(out.status.success(), "dot incast failed: {out:?}");
    let dot = String::from_utf8_lossy(&out.stdout);
    assert!(dot.starts_with("digraph"), "dot incast printed {dot:?}");
}

#[test]
fn figure_prints_its_banner_then_its_rows() {
    let out = hawkeye(&["figure", "fig13"]);
    assert!(out.status.success(), "figure fig13 failed: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with("\n####") && text.contains("# Figure 13: hardware resource usage\n"),
        "figure fig13 printed {text:?}"
    );
    assert!(text.contains("(b) memory vs epochs and max flows (bytes):"));
}

/// Each subcommand writes into a pipe whose read end is already closed, as
/// under `hawkeye ... | head` once `head` has exited: it exits 0 and says
/// nothing on stderr (beyond the `// ` summary `dot` always writes there).
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    for args in [
        &["dot", "incast"][..],
        &["figure", "fig13"],
        &["scenario", "incast", "--json"],
        &["summary", "incast"],
        &["cbd", "inloop"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_hawkeye"))
            .args(args)
            .env_remove("HAWKEYE_JOBS")
            .stdout(Stdio::from(writer))
            .stderr(Stdio::piped())
            .output()
            .expect("spawn hawkeye");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(
            err.lines().all(|l| l.starts_with("// ")),
            "{args:?} wrote to stderr: {err}"
        );
    }
}

/// Each run writes to a stderr whose read end is already closed: a usage
/// error still exits 2 and `dot`, which always writes its summary there,
/// still exits 0.
#[test]
fn a_closed_stderr_changes_no_exit_code() {
    for (args, code) in [
        (&["scenario", "bogus"][..], 2),
        (&["dot", "incast"], 0),
        (&["serve"], 2),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let status = Command::new(env!("CARGO_BIN_EXE_hawkeye"))
            .args(args)
            .env_remove("HAWKEYE_JOBS")
            .stdout(Stdio::null())
            .stderr(Stdio::from(writer))
            .status()
            .expect("spawn hawkeye");
        assert_eq!(status.code(), Some(code), "{args:?}");
    }
}
