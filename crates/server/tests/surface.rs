//! The surface census: every verb, `ServerConfig` field, thread and STATS
//! key of a fully configured node is a row of DESIGN §17 "Surface", and
//! each row names the test that exercises it (or, for a STATS key, says
//! that nothing reads it). The census checks the tables and never writes
//! them: on drift it prints the rows to add and the rows to remove.
//!
//! The node is the one ROADMAP item 12 asks for: a primary with a log, a
//! checkpointer and replication on, one replica that would promote
//! itself, and an idle client connection on each. Over one idle window
//! every thread of both is bounded in its wake-ups. Heartbeats and their
//! acks are work; nothing else is.
//!
//! Alone in its file, and so in its process: `/proc/self/task` then shows
//! these two nodes' threads and nothing another test started.

use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

use gocc_server::{spawn, ServerConfig, ServerHandle};
use gocc_telemetry::JsonValue;
use gocc_wire::{ReplRequest, Request, Response};

mod common;
use common::{connect, threads, Thread};

const DESIGN: &str = include_str!("../../../DESIGN.md");

/// What a STATS key row says when nothing reads the key.
const UNREAD: &str = "unread (operator surface)";

/// The idle window the wake-ups are counted over.
const WINDOW: Duration = Duration::from_secs(1);

/// The names of an enum's variants, through an exhaustive `match` with no
/// `_` arm: a variant added or removed stops this compiling.
macro_rules! variants {
    ($ty:ident: $($v:ident),* $(,)?) => {{
        fn _every(r: &$ty<'_>) {
            match r {
                $($ty::$v { .. } => {})*
            }
        }
        BTreeSet::from([$(stringify!($v)),*])
    }};
}

/// The names of `ServerConfig`'s fields, through a destructure with no
/// `..`: a field added or removed stops this compiling.
macro_rules! fields {
    ($($f:ident),* $(,)?) => {{
        let ServerConfig { $($f: _),* } = ServerConfig::default();
        BTreeSet::from([$(stringify!($f)),*])
    }};
}

/// The rows of the DESIGN §17 table under the heading `### 17.<n> title`:
/// `(item, exercised by)`, both without their backticks.
fn table(title: &str) -> Vec<(String, String)> {
    let section = DESIGN
        .split("\n## ")
        .find(|s| s.starts_with("17. Surface"))
        .expect("DESIGN has a \"17. Surface\" section");
    let body = section
        .split("\n### ")
        .find(|t| {
            t.lines()
                .next()
                .and_then(|h| h.split_once(' '))
                .map(|(_, h)| h)
                == Some(title)
        })
        .unwrap_or_else(|| panic!("DESIGN §17 has no \"{title}\" table"));
    let cell = |c: &str| c.trim().trim_matches('`').to_string();
    body.lines()
        .filter(|l| l.starts_with("| `"))
        .map(|l| {
            let cells: Vec<&str> = l.trim_matches('|').split('|').collect();
            (cell(cells[0]), cell(cells[cells.len() - 1]))
        })
        .collect()
}

/// Whether `by` names a `fn` that exists: `path/from/root.rs::name`.
fn exists(by: &str) -> bool {
    let Some((file, name)) = by.split_once("::") else {
        return false;
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join(file)).unwrap_or_default();
    text.contains(&format!("fn {name}(")) || text.contains(&format!("fn {name}<"))
}

/// Compares the `live` items of one surface with its DESIGN table and
/// returns what drifted, as lines to print. `covered` says whether a row
/// no live item matches still stands (a key inside an array the traffic
/// left empty).
fn drift(
    title: &str,
    live: &BTreeSet<String>,
    covered: impl Fn(&str) -> bool,
    unread_allowed: bool,
) -> Vec<String> {
    let rows = table(title);
    let listed: BTreeSet<String> = rows.iter().map(|(item, _)| item.clone()).collect();
    let mut out = Vec::new();
    for item in live.difference(&listed) {
        out.push(format!(
            "{title}: row to add: | `{item}` | `<file>::<fn>` |"
        ));
    }
    for item in listed.difference(live) {
        if !covered(item) {
            out.push(format!("{title}: row to remove: `{item}`"));
        }
    }
    for (item, by) in &rows {
        let unread = unread_allowed && by == UNREAD;
        if !unread && !exists(by) {
            out.push(format!("{title}: `{item}` names no existing fn: {by}"));
        }
    }
    out
}

/// Every key of a STATS document, flattened: `wal.fsyncs`, an array as
/// `per_worker[]` and its elements' keys as `per_worker[].executed`. A
/// null (`wal` on a node with no log) contributes nothing.
fn flatten(path: &str, v: &JsonValue, out: &mut BTreeSet<String>) {
    let join = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match v {
        JsonValue::Null => {}
        JsonValue::Object(map) => {
            for (key, v) in map {
                flatten(&join(key), v, out);
            }
        }
        JsonValue::Array(items) => {
            let path = format!("{path}[]");
            for item in items {
                flatten(&path, item, out);
            }
            out.insert(path);
        }
        _ => {
            out.insert(path.to_string());
        }
    }
}

/// A thread's name as its DESIGN row writes it: a worker's index is
/// `<n>`.
fn row_name(comm: &str) -> String {
    match comm.strip_prefix("goccd-worker-") {
        Some(_) => "goccd-worker-<n>".to_string(),
        None => comm.to_string(),
    }
}

/// The most wake-ups `thread` may take in one idle `WINDOW` in which its
/// node's replication stream carries `beats` heartbeats.
fn bar(thread: &str, beats: u64) -> u64 {
    match thread {
        // The worker that owns the replica's stream sends each heartbeat
        // and reads the ack it brings back.
        "goccd-worker-<n>" => 3 * beats,
        // One read of the upstream's heartbeat write, every shard's beat
        // in it; with auto-promotion its wait also ends at the suspect
        // deadline, which the heartbeats keep pushing back.
        "goccd-replica" => beats * 3 / 2,
        // ROADMAP item 12's remaining debt: the syncer's 500 µs idle
        // backstop, which goes once item 6 has checked `syncer_idle`.
        "wal-syncer" => (WINDOW.as_micros() / 500) as u64,
        // The acceptor and the checkpointer: nothing.
        _ => 4,
    }
}

fn shut_down(handle: ServerHandle) {
    handle.request_shutdown();
    let _ = handle.join();
}

#[test]
fn every_row_is_listed_and_every_idle_thread_sleeps() {
    let t0 = Instant::now();
    let before: BTreeSet<u64> = threads().iter().map(|t| t.tid).collect();
    let dir = std::env::temp_dir().join(format!("gocc-surface-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut config = ServerConfig {
        data_dir: Some(dir.clone()),
        repl_accept: true,
        ..ServerConfig::default()
    };
    config.wal.checkpoint_every = 100;
    let primary = spawn(config).expect("spawn primary");
    let replica = spawn(ServerConfig {
        replica_of: Some(format!("127.0.0.1:{}", primary.port())),
        repl_auto_promote: true,
        ..ServerConfig::default()
    })
    .expect("spawn replica");

    // One write on the primary, read back from the replica once it has
    // applied it; then both clients idle.
    let mut on_primary = connect(primary.port());
    let set = Request::Set {
        key: b"k",
        value: 1,
        ttl: 0,
    };
    assert_eq!(on_primary.call(&set).expect("call"), Response::Done);
    let mut on_replica = connect(replica.port());
    let get = Request::Get { key: b"k" };
    let one = Response::Value {
        found: true,
        value: 1,
    };
    while on_replica.call(&get).expect("call") != one {
        assert!(t0.elapsed() < Duration::from_secs(5), "never replicated");
        std::thread::sleep(Duration::from_millis(5));
    }
    let feed = primary.state().repl_feed().expect("feed");
    while feed.counters().acks() < 4 {
        assert!(t0.elapsed() < Duration::from_secs(5), "no acks came");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(feed.subscriber_count(), 1);

    // The idle window: both nodes' threads, every one of them.
    let mut nodes: Vec<Thread> = threads();
    nodes.retain(|t| !before.contains(&t.tid));
    let use_of = |t: &Thread| (t.switches(), t.cpu_ns());
    let start: Vec<(u64, u64)> = nodes.iter().map(use_of).collect();
    std::thread::sleep(WINDOW);
    let end: Vec<(u64, u64)> = nodes.iter().map(use_of).collect();
    let beats = (WINDOW.as_millis() / (ServerConfig::default().repl_lease / 4).as_millis()) as u64;
    let mut over = Vec::new();
    println!("wake-ups and CPU in {WINDOW:?} idle, {beats} heartbeats:");
    for ((t, a), b) in nodes.iter().zip(&start).zip(&end) {
        let (woken, cpu_us) = (b.0 - a.0, (b.1 - a.1) / 1000);
        let bar = bar(&row_name(&t.name), beats);
        println!(
            "  {:<16} {:>6} {woken:>5} (bar {bar:>4}) {cpu_us:>6} µs",
            t.name, t.tid
        );
        if woken > bar {
            over.push(format!(
                "{} (tid {}): {woken} wake-ups, bar {bar}",
                t.name, t.tid
            ));
        }
        // A 200 µs poll-and-sleep burned ≈ 20 ms of CPU a second.
        if t.name != "wal-syncer" && cpu_us >= 20_000 {
            over.push(format!("{} (tid {}): {cpu_us} µs CPU idle", t.name, t.tid));
        }
    }

    // Still there, still serving.
    assert_eq!(on_primary.call(&get).expect("call"), one);
    assert_eq!(on_replica.call(&get).expect("call"), one);
    let mut keys = BTreeSet::new();
    for c in [&mut on_primary, &mut on_replica] {
        let Response::Stats { json } = c.call(&Request::Stats).expect("call") else {
            panic!("STATS answered with something else");
        };
        flatten(
            "",
            &JsonValue::parse(json).expect("STATS parses"),
            &mut keys,
        );
    }
    shut_down(replica);
    shut_down(primary);
    let _ = std::fs::remove_dir_all(&dir);

    let named = |set: BTreeSet<&str>| set.into_iter().map(String::from).collect();
    let verbs = variants!(Request: Get, Set, Del, Incr, Scan, Stats, Shutdown, Health, Trace,
        Flush, SetS, GetS, Repl);
    let repl_verbs = variants!(ReplRequest: Hello, Ack, Promote, Candidate, EpochAnnounce);
    let config = fields!(
        mode,
        port,
        workers,
        shards,
        capacity_per_shard,
        write_timeout,
        drain_timeout,
        queue_limit,
        brownout,
        fault_plan,
        load_plan,
        trace_sample_n,
        data_dir,
        wal,
        replica_of,
        repl_accept,
        repl_min_acks,
        repl_lease,
        repl_ack_timeout,
        repl_fault_plan,
        repl_seed,
        repl_auto_promote,
        repl_peers,
        repl_suspect,
    );
    let names: BTreeSet<String> = nodes.iter().map(|t| row_name(&t.name)).collect();
    let exact = |_: &str| false;
    let in_empty_array = |row: &str| {
        row.split_once("[].")
            .is_some_and(|(array, _)| keys.contains(&format!("{array}[]")))
    };
    let mut drifted = Vec::new();
    drifted.extend(drift("Verbs", &named(verbs), exact, false));
    drifted.extend(drift("Replication verbs", &named(repl_verbs), exact, false));
    drifted.extend(drift("Config fields", &named(config), exact, false));
    drifted.extend(drift("Threads", &names, exact, false));
    drifted.extend(drift("STATS keys", &keys, in_empty_array, true));
    for line in &drifted {
        println!("{line}");
    }
    println!("census took {:?}", t0.elapsed());
    assert!(
        drifted.is_empty(),
        "the surface drifted from DESIGN §17:\n{}",
        drifted.join("\n")
    );
    assert!(over.is_empty(), "threads woke past their bar: {over:?}");
}
