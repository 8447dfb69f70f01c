//! `--jobs` contract: strict parsing (anything that isn't a positive
//! integer is a usage error, exit 2) and identical sweep output for any
//! accepted worker count. `--load` is parsed as strictly.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn hawkeye(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hawkeye"))
        .args(args)
        .env_remove("HAWKEYE_JOBS")
        .output()
        .expect("spawn hawkeye")
}

#[test]
fn bad_jobs_values_are_usage_errors() {
    for bad in ["0", "-1", "two", "1.5", ""] {
        let out = hawkeye(&["matrix", "--jobs", bad]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "--jobs {bad:?} must exit 2, got {:?}",
            out.status
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("usage:"), "stderr must show usage, got: {err}");
    }
    let out = hawkeye(&["matrix", "--jobs"]);
    assert_eq!(out.status.code(), Some(2), "--jobs without a value exits 2");
}

/// `--load` takes `--rates`' rule: a finite fraction in [0, 1]. An
/// accepted `inf` never returns (background arrivals stop advancing the
/// generator's clock), so the child is killed after 10 s and the test
/// fails instead of hanging.
#[test]
fn bad_load_values_are_usage_errors() {
    for bad in ["inf", "NaN", "-1", "1.5"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hawkeye"))
            .args(["scenario", "incast", "--load", bad])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn hawkeye");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            if let Some(status) = child.try_wait().expect("wait on hawkeye") {
                break status;
            }
            if Instant::now() > deadline {
                child.kill().expect("kill hawkeye");
                child.wait().expect("reap hawkeye");
                panic!("--load {bad:?} still running after 10 s");
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(status.code(), Some(2), "--load {bad:?} must exit 2");
        let mut err = String::new();
        child
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut err)
            .expect("read stderr");
        assert!(err.contains("usage:"), "stderr must show usage, got: {err}");
    }
}

#[test]
fn matrix_output_is_identical_across_job_counts() {
    let base = hawkeye(&["matrix", "--jobs", "1", "--load", "0"]);
    assert!(base.status.success(), "jobs=1 matrix failed");
    for jobs in ["2", "4"] {
        let out = hawkeye(&["matrix", "--jobs", jobs, "--load", "0"]);
        assert!(out.status.success(), "jobs={jobs} matrix failed");
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&base.stdout),
            "matrix output diverged at jobs={jobs}"
        );
    }
}
