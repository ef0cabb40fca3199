//! `daemon_session`: one closed-loop client driving the real `gpuflowd`
//! binary over loopback TCP, with `--log` journaling on.
//!
//! A session spawns a daemon and runs [`ROUNDS`] rounds. A round is
//! [`SUBMITS`] seeded submits across the three tenants and three job
//! shapes (kept within quota and queue cap), a read (`queue json` or
//! `metrics`) after every third submit, and a `drain`. The session
//! closes with `report` and `metrics`, shuts the daemon down, and
//! replays the journal it wrote through `DaemonCore::replay`: the
//! replayed exposition must equal the live one byte for byte.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gpuflow_daemon::DaemonCore;

use crate::stats::{host_clock, median, percentile, vm_hwm_mb, Tally};
use crate::trace::Tracer;
use crate::{Env, Workload};

/// Rounds per session: a fixed amount of work, so the journal a session
/// ends with does not depend on how fast the host is.
pub const ROUNDS: usize = 56;
/// Submits per round (the default daemon admits 8 per tenant and 24 in
/// all).
pub const SUBMITS: usize = 18;
/// Default daemon tenants and per-tenant quota.
const TENANTS: [&str; 3] = ["acme", "beta", "gamma"];
const QUOTA: usize = 8;
const SHAPES: [&str; 3] = ["wide", "stencil", "tree"];
/// Task counts of a round span `MIN_TASKS..=MAX_TASKS`.
const MIN_TASKS: u64 = 16;
const MAX_TASKS: u64 = 256;

/// Client-side deadlines: a stalled request fails instead of hanging.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);
const DRAIN_DEADLINE: Duration = Duration::from_secs(30);
const SPAWN_DEADLINE: Duration = Duration::from_secs(10);
const EXIT_DEADLINE: Duration = Duration::from_secs(10);

/// Set-up repetitions (daemon spawn to serving); `setup_s` is their
/// median.
const SETUP_REPS: usize = 9;

/// splitmix64: the seeded job-mix generator.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Fisher-Yates shuffle driven by `mix`.
fn shuffle<T>(items: &mut [T], mix: &mut Mix) {
    for i in (1..items.len()).rev() {
        items.swap(i, mix.below(i as u64 + 1) as usize);
    }
}

/// The submit lines of one round, drawn from `mix`. Every round holds
/// the same multiset of task counts (evenly spread over
/// `MIN_TASKS..=MAX_TASKS`) and of shapes (an equal share each); the
/// seed decides their order and pairing, each job's tenant and its
/// priority. Rounds thus carry equal work whatever the seed, and each
/// tenant stays within its quota, so every submit must be admitted.
fn round_submits(mix: &mut Mix) -> Vec<String> {
    let last = SUBMITS as u64 - 1;
    let mut tasks: Vec<u64> = (0..=last)
        .map(|k| MIN_TASKS + k * (MAX_TASKS - MIN_TASKS) / last)
        .collect();
    let mut shapes: Vec<&str> = (0..SUBMITS).map(|k| SHAPES[k % SHAPES.len()]).collect();
    shuffle(&mut tasks, mix);
    shuffle(&mut shapes, mix);
    let mut queued = [0usize; TENANTS.len()];
    tasks
        .into_iter()
        .zip(shapes)
        .map(|(tasks, shape)| {
            let open: Vec<usize> = (0..TENANTS.len()).filter(|&t| queued[t] < QUOTA).collect();
            let t = open[mix.below(open.len() as u64) as usize];
            queued[t] += 1;
            let prio = mix.below(4);
            format!(
                "submit tenant={} shape={shape} tasks={tasks} prio={prio}",
                TENANTS[t]
            )
        })
        .collect()
}

/// Sends one request line and reads the reply to EOF, failing once
/// `deadline` has passed.
pub fn send_request(port: u16, line: &str, deadline: Duration) -> Result<String, String> {
    let start = host_clock();
    let left = |what: &str| {
        deadline
            .checked_sub(start.elapsed())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| format!("{what}: deadline of {deadline:?} passed"))
    };
    let addr = SocketAddr::from(([127, 0, 0, 1], port));
    let mut stream =
        TcpStream::connect_timeout(&addr, left("connect")?).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_write_timeout(Some(left("write")?))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| stream.shutdown(Shutdown::Write))
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = Vec::new();
    let mut buf = [0u8; 16 * 1024];
    loop {
        stream
            .set_read_timeout(Some(left("read")?))
            .map_err(|e| e.to_string())?;
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => reply.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    String::from_utf8(reply).map_err(|e| format!("reply is not UTF-8: {e}"))
}

/// A running `gpuflowd`; killed and reaped on drop if still alive.
struct Daemon {
    child: Child,
    port: u16,
    log: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on a free loopback port and waits until it
    /// answers `health`, a request that journals nothing.
    fn start(bin: &Path, log: PathBuf) -> Result<Daemon, String> {
        let port = TcpListener::bind(("127.0.0.1", 0))
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?
            .port();
        // lint: allow(D3, starts the gpuflowd process under test; no thread is spawned)
        let child = Command::new(bin)
            .arg("--port")
            .arg(port.to_string())
            .arg("--log")
            .arg(&log)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon { child, port, log };
        let start = host_clock();
        loop {
            match send_request(port, "health", REQUEST_DEADLINE) {
                Ok(reply) if reply.starts_with("ok") => return Ok(daemon),
                _ => {}
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("gpuflowd exited with {status} before serving"));
            }
            if start.elapsed() >= SPAWN_DEADLINE {
                return Err(format!("gpuflowd not serving within {SPAWN_DEADLINE:?}"));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Bytes the daemon has passed to write calls so far.
    fn wchar(&self) -> Option<u64> {
        let io = std::fs::read_to_string(format!("/proc/{}/io", self.pid())).ok()?;
        io.lines()
            .find_map(|l| l.strip_prefix("wchar:"))
            .and_then(|v| v.trim().parse().ok())
    }

    /// Asks the daemon to shut down and reaps it; kills it if it does
    /// not exit in time.
    fn shutdown(mut self) -> Result<(), String> {
        let reply = send_request(self.port, "shutdown", REQUEST_DEADLINE);
        let start = host_clock();
        while start.elapsed() < EXIT_DEADLINE {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return reply.map(|_| ()),
                Ok(Some(status)) => return Err(format!("gpuflowd exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
        Err(format!("gpuflowd did not exit within {EXIT_DEADLINE:?}"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Checks a closing session: the replayed journal's exposition must
/// equal the live daemon's final `metrics` reply byte for byte.
pub fn check_replay(journal: &str, live_metrics: &str) -> Result<(), String> {
    let core = DaemonCore::replay(journal).map_err(|e| format!("replay: {e}"))?;
    let replayed = core.metrics_text();
    if replayed != live_metrics {
        let at = replayed
            .bytes()
            .zip(live_metrics.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(replayed.len().min(live_metrics.len()));
        return Err(format!(
            "replayed exposition differs from the live one at byte {at}"
        ));
    }
    Ok(())
}

struct Session {
    daemon: Daemon,
    mix: Mix,
    rounds: usize,
    submits: u64,
    started: Option<Instant>,
}

pub struct DaemonSession {
    bin: PathBuf,
    out_dir: PathBuf,
    seed: u64,
    sessions: u64,
    session: Option<Session>,
    submit_us: Vec<f64>,
    query_us: Vec<f64>,
    drain_ms: Vec<f64>,
    /// Each closed session's daemon `VmHWM`, MiB.
    hwm_mb: Vec<f64>,
}

pub fn setup(env: &Env, tr: &mut Tracer, tally: &mut Tally) -> DaemonSession {
    let mut w = DaemonSession {
        bin: env.daemon_bin.clone(),
        out_dir: env.out_dir.clone(),
        seed: env.seed,
        sessions: 0,
        session: None,
        submit_us: Vec::new(),
        query_us: Vec::new(),
        drain_ms: Vec::new(),
        hwm_mb: Vec::new(),
    };
    for rep in 0..SETUP_REPS {
        let op = tr.begin_op("setup");
        let t0 = host_clock();
        let spawned = w.open_session(tr);
        let secs = t0.elapsed().as_secs_f64();
        tr.end(op);
        tally.setup_s.push(secs);
        match spawned {
            Ok(s) if rep + 1 == SETUP_REPS => w.session = Some(s),
            Ok(s) => {
                let log = s.daemon.log.clone();
                let down = s.daemon.shutdown();
                tally.op(down.is_ok(), || format!("set-up daemon shutdown: {down:?}"));
                let _ = std::fs::remove_file(log);
            }
            Err(e) => tally.op(false, || e),
        }
    }
    w
}

impl DaemonSession {
    /// Spawns the next session's daemon, seeded by the run seed and the
    /// session index.
    fn open_session(&mut self, tr: &mut Tracer) -> Result<Session, String> {
        let k = self.sessions;
        self.sessions += 1;
        let log = self
            .out_dir
            .join(format!("gpuflowd-{}-{k}.log", std::process::id()));
        let span = tr.begin("daemon", "spawn");
        let daemon = Daemon::start(&self.bin, log);
        tr.end(span);
        Ok(Session {
            daemon: daemon?,
            mix: Mix(self.seed ^ k.wrapping_mul(0xA076_1D64_78BD_642F)),
            rounds: 0,
            submits: 0,
            started: None,
        })
    }

    /// Closes the session: final reads, shutdown, journal replay check.
    fn close_session(&mut self, s: Session, tr: &mut Tracer, tally: &mut Tally) {
        let op = tr.begin_op("daemon_close");
        let port = s.daemon.port;
        let ask = |tr: &mut Tracer, line: &str| {
            let span = tr.begin("daemon", line);
            let reply = send_request(port, line, REQUEST_DEADLINE);
            tr.end(span);
            reply
        };
        let report = ask(tr, "report");
        tally.op(
            matches!(&report, Ok(r) if !r.is_empty() && !r.starts_with("err")),
            || format!("report: {report:?}"),
        );
        let metrics = ask(tr, "metrics");
        let session_secs = s.started.map(|t| t.elapsed().as_secs_f64());
        if let (Some(secs), true) = (session_secs, s.rounds > 0) {
            tally.sample("jobs_per_s", (s.rounds * SUBMITS) as f64 / secs);
        }
        if let Some(mb) = vm_hwm_mb(&s.daemon.pid()) {
            self.hwm_mb.push(mb);
        }
        if let (Some(w), true) = (s.daemon.wchar(), s.submits > 0) {
            tally.sample("daemon.write_bytes_per_submit", w as f64 / s.submits as f64);
        }
        let log = s.daemon.log.clone();
        let down = s.daemon.shutdown();
        tally.op(down.is_ok(), || format!("shutdown: {down:?}"));
        let journal = std::fs::read_to_string(&log);
        let _ = std::fs::remove_file(&log);
        let verdict = match (&journal, &metrics) {
            (Ok(journal), Ok(live)) => {
                tally.sample("daemon.journal_bytes", journal.len() as f64);
                let span = tr.begin("daemon_replay", "replay");
                let t = host_clock();
                let v = check_replay(journal, live);
                tally.sample("daemon.replay_ms", t.elapsed().as_secs_f64() * 1e3);
                tr.end(span);
                v.and_then(|()| {
                    gpuflow_lint::promtext::check(live)
                        .map(|_| ())
                        .map_err(|e| format!("exposition: {e}"))
                })
            }
            (j, m) => Err(format!(
                "journal {:?} / metrics {:?}",
                j.as_ref().err(),
                m.as_ref().err()
            )),
        };
        tally.op(verdict.is_ok(), || verdict.clone().unwrap_err());
        tr.end(op);
    }
}

impl Workload for DaemonSession {
    fn pass(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        let mut s = match self.session.take() {
            Some(s) => s,
            None => match self.open_session(tr) {
                Ok(s) => s,
                Err(e) => {
                    tally.op(false, || e);
                    return;
                }
            },
        };
        let port = s.daemon.port;
        let lines = round_submits(&mut s.mix);
        let op = tr.begin_op("daemon_round");
        s.started.get_or_insert_with(host_clock);
        let round = host_clock();
        for (j, line) in lines.iter().enumerate() {
            let span = tr.begin("daemon", "submit");
            let t = host_clock();
            let reply = send_request(port, line, REQUEST_DEADLINE);
            self.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            tr.end(span);
            s.submits += 1;
            tally.op(matches!(&reply, Ok(r) if r.starts_with("ok job=")), || {
                format!("{line}: {reply:?}")
            });
            if j % 3 == 2 {
                let verb = if (j / 3) % 2 == 0 {
                    "queue json"
                } else {
                    "metrics"
                };
                let span = tr.begin("daemon", verb);
                let t = host_clock();
                let reply = send_request(port, verb, REQUEST_DEADLINE);
                self.query_us.push(t.elapsed().as_secs_f64() * 1e6);
                tr.end(span);
                tally.op(
                    matches!(&reply, Ok(r) if !r.is_empty() && !r.starts_with("err")),
                    || format!("{verb}: {reply:?}"),
                );
            }
        }
        let span = tr.begin("daemon", "drain");
        let t = host_clock();
        let reply = send_request(port, "drain", DRAIN_DEADLINE);
        self.drain_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tr.end(span);
        tally.pass_ms.push(round.elapsed().as_secs_f64() * 1e3);
        tr.end(op);
        let drained = reply.as_ref().ok().and_then(|r| parse_drain(r));
        tally.op(
            matches!(drained, Some((jobs, _)) if jobs == SUBMITS as u64),
            || format!("drain: {reply:?}"),
        );
        if let Some((_, makespan)) = drained {
            tally.sample("daemon.epoch_makespan_s", makespan);
        }
        let tasks: u64 = lines
            .iter()
            .filter_map(|l| {
                l.split("tasks=")
                    .nth(1)?
                    .split(' ')
                    .next()?
                    .parse::<u64>()
                    .ok()
            })
            .sum();
        tally.sample("daemon.drain_tasks", tasks as f64);
        s.rounds += 1;
        if s.rounds == ROUNDS {
            self.close_session(s, tr, tally);
        } else {
            self.session = Some(s);
        }
    }

    fn passes_per_unit(&self) -> usize {
        ROUNDS
    }

    fn end_measurement(&mut self, tr: &mut Tracer, tally: &mut Tally) {
        if let Some(s) = self.session.take() {
            self.close_session(s, tr, tally);
        }
        let submits = std::mem::take(&mut self.submit_us);
        tally.sample("submit_p50_us", percentile(&submits, 50.0));
        tally.sample("submit_p99_us", percentile(&submits, 99.0));
        tally.sample(
            "query_p50_us",
            percentile(&std::mem::take(&mut self.query_us), 50.0),
        );
        tally.sample(
            "drain_p50_ms",
            percentile(&std::mem::take(&mut self.drain_ms), 50.0),
        );
        tally.sample(
            "daemon.peak_rss_mb",
            median(&std::mem::take(&mut self.hwm_mb)),
        );
    }
}

/// Parses `ok drained jobs=N epoch=E makespan=M` into `(N, M)`.
fn parse_drain(reply: &str) -> Option<(u64, f64)> {
    let field = |k: &str| {
        reply
            .split_whitespace()
            .find_map(|w| w.strip_prefix(k))
            .map(str::to_string)
    };
    if !reply.starts_with("ok drained") {
        return None;
    }
    Some((
        field("jobs=")?.parse().ok()?,
        field("makespan=")?.parse().ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_respect_quota_and_are_seeded() {
        let a = round_submits(&mut Mix(7));
        assert_eq!(a, round_submits(&mut Mix(7)));
        assert_ne!(a, round_submits(&mut Mix(8)));
        assert_eq!(a.len(), SUBMITS);
        let total = |r: &[String]| -> u64 {
            r.iter()
                .map(|l| {
                    l.split("tasks=")
                        .nth(1)
                        .unwrap()
                        .split(' ')
                        .next()
                        .unwrap()
                        .parse::<u64>()
                        .unwrap()
                })
                .sum()
        };
        assert_eq!(total(&a), total(&round_submits(&mut Mix(8))));
        for t in TENANTS {
            let n = a
                .iter()
                .filter(|l| l.contains(&format!("tenant={t} ")))
                .count();
            assert!(n <= QUOTA, "{t}: {n}");
        }
    }

    #[test]
    fn drain_reply_parses() {
        assert_eq!(
            parse_drain("ok drained jobs=18 epoch=3 makespan=1.250000\n"),
            Some((18, 1.25))
        );
        assert_eq!(parse_drain("err queue empty\n"), None);
    }

    #[test]
    fn replay_check_rejects_an_altered_journal_line() {
        let mut core = DaemonCore::new(Default::default()).unwrap();
        for line in round_submits(&mut Mix(3)) {
            let cmd = gpuflow_daemon::protocol::parse_command(&line).unwrap();
            if let gpuflow_daemon::Command::Submit {
                tenant,
                shape,
                tasks,
                prio,
            } = cmd
            {
                core.submit(&tenant, shape, tasks, prio).unwrap();
            }
        }
        core.drain().unwrap();
        let journal = core.journal_text();
        let live = core.metrics_text();
        assert!(check_replay(&journal, &live).is_ok());
        // Change one recorded task count: the replayed epoch differs.
        let i = journal.find("tasks=").unwrap() + "tasks=".len();
        let mut altered = journal.clone();
        let digit = if &journal[i..=i] == "9" { "8" } else { "9" };
        altered.replace_range(i..=i, digit);
        assert!(check_replay(&altered, &live).is_err());
    }
}
