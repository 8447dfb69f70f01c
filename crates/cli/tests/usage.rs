//! Usage errors exit 2 with `hawkeye: <reason>` and the usage text: a
//! flag the subcommand does not read, a figure id that does not exist,
//! and a `dot` kind that has no case study.

use std::process::{Command, Output};

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
