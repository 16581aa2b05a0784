//! The architecture rules. Each test holds the tree to one rule, written as
//! rows of data: the paths a row reads, the substrings it bans there (`|`
//! separates them), and the files and lines it lets pass. A failure lists
//! each hit as `file:line: text`.
//!
//! A `code` row reads each `.rs` file only above its test module, the first
//! `#[cfg(test)]` at the start of a line whose next line opens a `mod`: unit
//! tests may spin on a probe, drive queues by hand and make their own
//! instants. A `names` row reads every file whole. No row reads this file,
//! which spells every banned name.

use std::fs;
use std::path::{Path, PathBuf};

#[derive(Default)]
struct Rule {
    /// Files, or directories read recursively, separated by spaces; a `*`
    /// component matches any one.
    roots: &'static str,
    /// Read `.rs` files only, above their test modules.
    code: bool,
    banned: &'static str,
    skip: &'static [&'static str],
    /// Lines allowed in a file: its text after the indentation is the given
    /// one, or, with `true`, starts with it.
    allow: &'static [(&'static str, &'static str, bool)],
    /// In a file, blank the item that opens on a line starting with the
    /// given text, through the next line that starts with `}`.
    blank: Option<(&'static str, &'static str)>,
    /// Join each line that ends in `(` with the next one, as a call whose
    /// arguments rustfmt moved down reads; a hit names the first line.
    join_calls: bool,
}

fn names(roots: &'static str, banned: &'static str) -> Rule {
    Rule {
        roots,
        banned,
        ..Rule::default()
    }
}

fn code(roots: &'static str, banned: &'static str) -> Rule {
    Rule {
        code: true,
        ..names(roots, banned)
    }
}

const NAMES: &str = "crates src tests";
const NAMES_AND_EXAMPLES: &str = "crates src tests examples";
const ENGINES: &str =
    "crates/dataflow/src crates/broker/src crates/stateflow/src crates/statefun/src";
const DELAY: &str = "crates/dataflow/src/delay.rs";
const CONFIG: &str = "crates/stateflow/src/config.rs";
const RUNTIME: &str = "crates/stateflow/src/runtime.rs";

/// One park point: an engine thread blocks only in
/// `DelayReceiver::recv_until`, whose file holds the one condvar and the one
/// poll before the park. A condvar, channel or spin elsewhere in the engine
/// crates would be a second place to park or busy-wait; `net.rs`'s `burn`
/// spins to simulate service time.
#[test]
fn engine_threads_park_only_in_delay_receiver() {
    check(&[
        Rule {
            skip: &[DELAY],
            ..names(ENGINES, "Condvar|crossbeam|mpsc")
        },
        Rule {
            skip: &[DELAY],
            blank: Some(("crates/dataflow/src/net.rs", "pub fn burn(")),
            ..code(ENGINES, "yield_now|spin_loop")
        },
    ]);
}

/// Both engines' roles are handlers: only the shared shell
/// (`crates/dataflow/src/shell.rs`) parks and reads the clock, and only its
/// `Post` holds the inboxes, applies the chaos plan and models the hop. So
/// no engine file names a sender, a hop or a fault decision, and no role
/// file a seam or the clock.
#[test]
fn the_engines_park_only_in_the_shared_shell() {
    check(&[
        Rule {
            skip: &["crates/dataflow/src/shell.rs", DELAY],
            ..code("crates/*/src", ".recv_until(")
        },
        code(
            "crates/stateflow/src crates/statefun/src",
            "send_with_chaos|DelaySender|f2f_latency|remote_fn_latency|.on_message(",
        ),
        code(
            "crates/stateflow/src/coordinator.rs crates/stateflow/src/worker.rs \
             crates/statefun/src/task.rs crates/statefun/src/remote.rs",
            "Routes|Seam::|Instant::now",
        ),
    ]);
}

/// StateFun resolves its broker topics once, at deploy: a produce or read by
/// topic name takes the broker-wide lock and hashes the name on every call.
#[test]
fn statefun_resolves_its_topics_once() {
    check(&[Rule {
        join_calls: true,
        ..code(
            "crates/statefun/src",
            ".produce(topics::|.fetch(topics::|produce_to(topics::|next_visible_at(topics::\
             |truncate_below(topics::",
        )
    }]);
}

/// StateFlow's coordinator seals when its pipeline window opens and holds no
/// time: a batch deadline would be a second sealing rule that only adds
/// latency. `batch_interval` lives on only as an inert field (its doc,
/// declaration and `Default`, and the deploy check that rejects non-zero)
/// until the benchmark package stops naming it.
#[test]
fn the_coordinator_holds_no_time() {
    check(&[
        names(NAMES_AND_EXAMPLES, "batch_deadline"),
        Rule {
            allow: &[
                (CONFIG, "///", true),
                (CONFIG, "pub batch_interval: Duration,", false),
                (CONFIG, "batch_interval: Duration::ZERO,", false),
                (RUNTIME, "let inert = cfg.batch_interval.is_zero();", false),
            ],
            ..names(NAMES_AND_EXAMPLES, "batch_interval")
        },
        code("crates/stateflow/src/coordinator.rs", "Instant"),
    ]);
}

/// One Aria: the reservation round is the protocol's only implementation,
/// and `ReservationTable::decide` its checker's oracle.
#[test]
fn one_aria_implementation() {
    check(&[names(
        NAMES,
        "run_to_completion|run_batch|FallbackPolicy|TxnCtx|CommitRule::Basic",
    )]);
}

/// Workers apply commits in batch order and an epoch cut waits at their
/// watermarks: a commit ack would be a second barrier on the coordinator.
#[test]
fn no_commit_acks() {
    check(&[names(NAMES, "CommitAck|pending_acks|early_acks")]);
}

/// The worker that applies a create answers the client: a relay through the
/// coordinator would put its turn back on the answer path.
#[test]
fn creates_are_answered_by_their_worker() {
    check(&[names(NAMES, "CreateDone")]);
}

/// Every deploy and redeploy compiles from scratch: a reuse path beside
/// `se_compiler::compile` and `VmProgram::compile` is a second compiler.
#[test]
fn one_compile_path() {
    check(&[names(
        NAMES_AND_EXAMPLES,
        "compile_upgrade|compile_reusing|compile_with|RecompileStats|CompileOptions",
    )]);
}

/// Fails, listing each hit, unless no row of `rules` finds one.
fn check(rules: &[Rule]) {
    let files = tree();
    let mut hits = Vec::new();
    for rule in rules {
        let roots: Vec<&str> = rule.roots.split(' ').collect();
        for root in &roots {
            assert!(files.iter().any(|f| under(f, root)), "no file under {root}");
        }
        for file in files.iter().filter(|f| roots.iter().any(|r| under(f, r))) {
            if rule.skip.contains(&file.as_str()) || rule.code && !file.ends_with(".rs") {
                continue;
            }
            for (i, line) in read(rule, file).iter().enumerate() {
                let body = line.trim_start();
                let allowed = rule.allow.iter().any(|&(f, text, prefix)| {
                    f == file && (body == text || prefix && body.starts_with(text))
                });
                if !allowed && rule.banned.split('|').any(|b| line.contains(b)) {
                    hits.push(format!("{file}:{}: {}", i + 1, line.trim()));
                }
            }
        }
    }
    assert!(hits.is_empty(), "broken at:\n{}", hits.join("\n"));
}

/// The lines of `file` that `rule` reads, each in its own line's place.
fn read(rule: &Rule, file: &str) -> Vec<String> {
    let bytes = fs::read(repo(file)).expect("read a source file");
    let text = String::from_utf8_lossy(&bytes);
    let mut lines: Vec<String> = text.lines().map(Into::into).collect();
    if rule.code {
        let opens = |w: &[String]| w[0].starts_with("#[cfg(test)]") && w[1].starts_with("mod ");
        lines.truncate(lines.windows(2).position(opens).unwrap_or(lines.len()));
    }
    if let Some((_, head)) = rule.blank.filter(|&(f, _)| f == file) {
        if let Some(start) = lines.iter().position(|l| l.starts_with(head)) {
            let close = lines[start + 1..].iter().position(|l| l.starts_with('}'));
            let end = close.map_or(lines.len(), |c| start + c + 2);
            lines[start..end].iter_mut().for_each(String::clear);
        }
    }
    let mut open = 0;
    for i in 1..lines.len() {
        if rule.join_calls && lines[open].ends_with('(') {
            let next = std::mem::take(&mut lines[i]);
            lines[open].push_str(next.trim_start());
        } else {
            open = i;
        }
    }
    lines
}

fn repo(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(path)
}

/// Every file but this one under the directories rules read, relative to
/// the repo root and sorted, without what building, testing and running
/// leave behind (see `.gitignore`).
fn tree() -> Vec<String> {
    let mut dirs: Vec<String> = NAMES_AND_EXAMPLES.split(' ').map(Into::into).collect();
    let mut files = Vec::new();
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(repo(&dir)).expect("list a source directory") {
            let name = entry.expect("read a directory entry").file_name();
            let path = format!("{dir}/{}", name.to_string_lossy());
            if !repo(&path).is_dir() {
                files.push(path);
            } else if !(path.ends_with("/target") || path.ends_with("_results")) {
                dirs.push(path);
            }
        }
    }
    files.retain(|f| f != "tests/architecture.rs");
    files.sort();
    files
}

/// Whether `file` is `root` or lies under it.
fn under(file: &str, root: &str) -> bool {
    let mut parts = file.split('/');
    root.split('/')
        .all(|r| parts.next().is_some_and(|p| r == "*" || r == p))
}
