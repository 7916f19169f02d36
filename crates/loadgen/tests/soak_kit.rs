//! The soak kit's own contract: what every harness binary relies on when
//! it hands its `main` to `gocc_loadgen::soak`. The exit-code mapping,
//! the flag table, the clean-up guards and the reference oracle are each
//! driven directly — with real child processes and real directories —
//! so a soak that exits 4, leaves no orphan `goccd` and admits exactly
//! the legal recovered states does so because of code checked here.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gocc_loadgen::soak::{
    self, exit_status, violation, Daemon, Flags, KeyHist, SoakError, TempDir, EXIT_HARNESS,
    EXIT_VIOLATION,
};
use gocc_server::Mode;
use gocc_telemetry::SplitMix64;
use gocc_wire::Request;

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

#[derive(Debug, PartialEq)]
struct Parsed {
    seed: u64,
    mode: Option<Mode>,
    rate: f64,
    hold: Duration,
    trace_out: Option<String>,
    quick: bool,
}

fn parse(raw: &[&str]) -> Result<Parsed, String> {
    let mut p = Parsed {
        seed: 2026,
        mode: Some(Mode::Gocc),
        rate: 0.5,
        hold: Duration::from_millis(250),
        trace_out: Some("TRACE_x".to_string()),
        quick: false,
    };
    Flags::new("kit_test")
        .seed(&mut p.seed)
        .mode(&mut p.mode)
        .num("--rate", "F", &mut p.rate)
        .millis("--hold-ms", &mut p.hold)
        .or_none("--trace-out", "PREFIX|none", &mut p.trace_out)
        .switch("--quick", &mut p.quick)
        .parse(&strings(raw))?;
    Ok(p)
}

#[test]
fn flag_table_sets_fields_and_rejects_malformed_command_lines() {
    let p = parse(&[
        "--seed",
        "7",
        "--mode",
        "both",
        "--rate",
        "0.25",
        "--hold-ms",
        "40",
        "--trace-out",
        "none",
        "--quick",
    ])
    .expect("well-formed command line");
    assert_eq!(
        p,
        Parsed {
            seed: 7,
            mode: None,
            rate: 0.25,
            hold: Duration::from_millis(40),
            trace_out: None,
            quick: true,
        }
    );
    assert_eq!(parse(&["--mode", "lock"]).unwrap().mode, Some(Mode::Lock));
    assert_eq!(parse(&[]).unwrap().seed, 2026, "defaults survive");

    let usage = "usage: kit_test [--seed N] [--mode lock|gocc|both] [--rate F] [--hold-ms N] \
                 [--trace-out PREFIX|none] [--quick]";
    assert_eq!(parse(&["--help"]).unwrap_err(), usage);
    assert_eq!(parse(&["-h"]).unwrap_err(), usage);
    assert_eq!(
        parse(&["--sead", "7"]).unwrap_err(),
        format!("unknown flag \"--sead\"\n{usage}")
    );
    assert_eq!(
        parse(&["--quick", "--seed"]).unwrap_err(),
        format!("--seed needs a value\n{usage}")
    );
    let bad = parse(&["--seed", "seven"]).unwrap_err();
    assert!(bad.starts_with("--seed: invalid digit"), "{bad}");
    let bad = parse(&["--mode", "htm"]).unwrap_err();
    assert!(bad.starts_with("--mode: unknown mode"), "{bad}");
}

#[test]
fn outcomes_map_to_the_4_2_1_exit_codes() {
    let ok = |_: &[String]| Ok::<(), String>(());
    assert_eq!(exit_status("t", &[], ok, |_| Ok(())), 0);
    assert_eq!(
        exit_status("t", &[], ok, |_| Err(violation("an acked write was lost"))),
        EXIT_VIOLATION
    );
    assert_eq!(EXIT_VIOLATION, 4);
    // `?` on a plain `String` error is a harness failure, never a verdict.
    let harness = |_: &()| -> soak::SoakResult<()> {
        Err::<(), String>("goccd never printed LISTENING".to_string())?;
        Ok(())
    };
    assert_eq!(exit_status("t", &[], ok, harness), EXIT_HARNESS);
    assert_eq!(EXIT_HARNESS, 1);
    assert_eq!(soak::EXIT_LIVENESS, 2);

    let mut ran = false;
    let status = exit_status(
        "t",
        &strings(&["--bogus"]),
        |raw| parse(&raw.iter().map(String::as_str).collect::<Vec<_>>()),
        |_| {
            ran = true;
            Ok(())
        },
    );
    assert_eq!(status, EXIT_HARNESS, "a parse error is a harness error");
    assert!(!ran, "nothing runs after a parse error");
    assert_eq!(
        SoakError::from("x".to_string()),
        SoakError::Harness("x".into())
    );
}

fn alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

fn shell(script: &str) -> std::process::Child {
    Command::new("/bin/sh")
        .args(["-c", script])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn /bin/sh")
}

#[test]
fn dropping_a_daemon_kills_and_reaps_its_child() {
    let child = shell("echo booting; echo LISTENING 4242; exec sleep 30");
    let pid = child.id();
    let daemon = Daemon::adopt(child, Duration::from_secs(10)).expect("child announced its port");
    assert_eq!(daemon.port(), 4242);
    assert!(alive(pid));
    drop(daemon);
    assert!(!alive(pid), "child {pid} outlived its Daemon");
}

#[test]
fn a_child_that_never_listens_is_killed_and_reported() {
    // Silent but alive: only the patience bound ends the wait.
    let child = shell("exec sleep 30");
    let pid = child.id();
    let t0 = Instant::now();
    let err = Daemon::adopt(child, Duration::from_millis(150))
        .err()
        .expect("no LISTENING line, no daemon");
    assert_eq!(err, "goccd never printed LISTENING");
    assert!(t0.elapsed() < Duration::from_secs(5));
    assert!(!alive(pid), "silent child {pid} was left running");

    // Exits at once: reported without waiting out the patience.
    let child = shell("exit 3");
    let pid = child.id();
    let t0 = Instant::now();
    let err = Daemon::adopt(child, Duration::from_secs(30)).err();
    assert_eq!(err.as_deref(), Some("goccd never printed LISTENING"));
    assert!(t0.elapsed() < Duration::from_secs(5));
    assert!(!alive(pid));

    let err = Daemon::spawn(Command::new("/nonexistent/goccd")).err();
    assert!(err.is_some_and(|e| e.starts_with("spawn /nonexistent/goccd:")));
}

#[test]
fn a_daemon_on_its_way_out_is_reaped_with_its_status() {
    let child = shell("echo LISTENING 1; exit 0");
    let mut daemon = Daemon::adopt(child, Duration::from_secs(10)).expect("announced");
    let status = daemon.wait_exit(Duration::from_secs(10)).expect("reaped");
    assert!(status.success());

    // One that will not leave is killed once the patience runs out.
    let child = shell("echo LISTENING 1; exec sleep 30");
    let mut daemon = Daemon::adopt(child, Duration::from_secs(10)).expect("announced");
    let status = daemon.wait_exit(Duration::from_millis(50)).expect("reaped");
    assert!(!status.success());
}

#[test]
fn a_temp_dir_is_cleared_when_claimed_and_gone_after_drop() {
    let dir = TempDir::new("soak-kit-test");
    let path = dir.path().to_path_buf();
    assert!(path.starts_with(std::env::temp_dir()));
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    assert_eq!(name, format!("gocc-soak-kit-test-{}", std::process::id()));
    std::fs::create_dir_all(path.join("shard-0")).unwrap();
    std::fs::write(path.join("shard-0/segment"), b"records").unwrap();

    // Claiming the same place again starts from nothing.
    std::mem::forget(dir);
    let dir = TempDir::at(path.clone());
    assert!(!path.exists());
    std::fs::create_dir_all(&path).unwrap();
    drop(dir);
    assert!(!path.exists(), "{} left behind", path.display());
}

#[test]
fn key_history_admits_only_the_acked_state_or_a_later_issued_one() {
    let mut hist = KeyHist::default();
    assert!(hist.admits(None), "a key nothing was issued on is absent");
    assert!(!hist.admits(Some(1)));

    hist.issue(Some(10)); // unacked
    assert!(hist.admits(None) && hist.admits(Some(10)));
    assert!(!hist.is_acked());

    hist.issue(Some(20));
    hist.ack_last(); // acked: 20
    hist.issue(Some(30)); // later, unacked
    hist.issue(None); // later delete, unacked
    assert!(hist.is_acked());
    assert!(hist.admits(Some(20)), "the acked state");
    assert!(hist.admits(Some(30)), "a later unacked state that landed");
    assert!(hist.admits(None), "a later unacked delete that landed");
    assert!(!hist.admits(Some(10)), "earlier than the ack: a lost ack");
    assert!(!hist.admits(Some(99)), "never issued: an invented write");
    assert_eq!(hist.current(), None, "last issued op was the delete");
    assert_eq!(hist.to_string(), "acked index Some(1) of 4 issued states");

    // An acked delete: only absence (or a later write) is legal.
    let mut hist = KeyHist::default();
    hist.issue(Some(5));
    hist.issue(None);
    hist.ack_last();
    assert!(hist.admits(None));
    assert!(!hist.admits(Some(5)), "the delete was acked; 5 is gone");

    hist.rebase(Some(7));
    assert!(hist.admits(Some(7)) && !hist.admits(None));
    assert_eq!(hist.current(), Some(7));
}

#[test]
fn issue_op_predicts_the_post_state_of_what_it_sends() {
    for with_incr in [false, true] {
        let mut rng = SplitMix64::new(2026);
        let mut hist = KeyHist::default();
        let (mut model, mut incrs) = (None::<u64>, 0);
        for _ in 0..400 {
            match soak::issue_op(&mut rng, "k", &mut hist, with_incr) {
                Request::Set { value, .. } => model = Some(value),
                Request::Del { .. } => model = None,
                Request::Incr { delta, .. } => {
                    incrs += 1;
                    model = Some(model.unwrap_or(0).wrapping_add(delta));
                }
                other => panic!("issue_op drew a non-write: {other:?}"),
            }
            assert_eq!(hist.current(), model);
        }
        assert_eq!(incrs > 0, with_incr, "INCR only when asked for");
    }
}
