//! `service-mix`: `asha-serve`'s daemon in a child process with a
//! group-commit window. The benchmark creates and starts a few small
//! concurrent experiments; one connection subscribes live to all of them,
//! the other sends status/list/ping requests open-loop at one fixed rate,
//! each timed from when it was due. Load comes from this process on two
//! threads and two connections.
//!
//! Checks: every subscription stream has consecutive `seq`s from 0 and
//! ends with `End`, and its length equals the experiment's `read_wal`
//! record count; each experiment's WAL telemetry equals an in-memory run of
//! the same seed; every control request gets the right reply in time.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use asha_core::{Asha, AshaConfig, Error};
use asha_metrics::JsonValue;
use asha_obs::HistogramSnapshot;
use asha_service::{encode_frame, Daemon, Frame, FrameReader, Push, Reply, Request, ServeOptions};
use asha_sim::SimConfig;
use asha_store::{read_wal, BenchSpec, ExperimentMeta, RunOptions, SchedulerState, WAL_FILE};
use asha_surrogate::BenchmarkModel;

use crate::durable::{final_loss, reference, same_events};
use crate::stats::{median, supported_percentile, tail_percentile, Ledger, OpenLoop, Outcomes};
use crate::sys::{dir_bytes, peak_rss_mb, process_cpu_s, ScratchDir, ThreadCpu};
use crate::{Ctx, Report};

/// Workload name.
pub const NAME: &str = "service-mix";
/// First argument that turns this binary into the daemon child.
pub const CHILD_FLAG: &str = "--serve-child";
/// Concurrent experiments per unit.
const EXPERIMENTS: usize = 3;
const WORKERS: usize = 25;
/// Jobs per experiment: a fixed budget, so every seed does the same amount
/// of work; the horizon is long enough that the budget ends each run.
const MAX_JOBS: usize = 13_000;
const HORIZON: f64 = 1000.0;
const PRESET: &str = "cifar10_cuda_convnet";
const SURFACE_SEED: u64 = 2020;
const GROUP_COMMIT: Duration = Duration::from_millis(2);
/// Open-loop control rate. A p99 needs 1,000 samples (ten beyond it), and
/// a run may measure a single unit, whose control window lasts about 3.5 s
/// on a 2-core Xeon VM and would be shorter on a faster box: 500 req/s
/// fills 1,000 samples in 2 s. That is 500 `asha-ctl top` watchers (each
/// sends `metrics` and `list` every 2 s), and under 2% of what the daemon
/// answered with the same experiments running on that VM (it kept up with
/// 30,000 req/s open loop), so the load does not saturate the control path.
const RATE_HZ: f64 = 500.0;
/// The stated limit on control-request p99 latency: 2.5x the 16-21 ms p99
/// this workload showed at every open-loop rate from 250 to 30,000 req/s
/// on the VM above. That floor is the control path waiting for a core
/// behind the experiment threads; a p99 past the limit means requests have
/// started to queue in the control path itself.
const P99_LIMIT_MS: f64 = 50.0;
/// A control request unanswered this long counts as failed.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// A subscription silent this long counts as failed.
const STREAM_TIMEOUT: Duration = Duration::from_secs(60);
const NOMINAL_UNIT_S: f64 = 4.5;
const MIN_SETUPS: usize = 10;
const DISK_NEED: u64 = 512 << 20;
/// How often the traced unit samples the daemon's per-thread CPU.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Child mode: run the daemon until a client asks it to shut down,
/// publishing its TCP address through `addrfile` (atomic rename).
pub fn serve_child(args: &[String]) -> ExitCode {
    let [root, addrfile] = args else {
        eprintln!("perfbench: {CHILD_FLAG} ROOT ADDRFILE");
        return ExitCode::from(2);
    };
    let mut opts = ServeOptions::new(root);
    opts.tcp = Some("127.0.0.1:0".to_owned());
    opts.group_commit = Some(GROUP_COMMIT);
    let daemon = match Daemon::start(opts) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(addr) = daemon.tcp_addr() else {
        return ExitCode::FAILURE;
    };
    let tmp = format!("{addrfile}.tmp");
    if std::fs::write(&tmp, format!("{addr}\n"))
        .and_then(|()| std::fs::rename(&tmp, addrfile))
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    match daemon.wait() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The daemon child; killed and reaped on drop if still running, so an
/// error or panic in the benchmark never leaves it behind.
struct DaemonChild {
    child: Child,
    addr: String,
}

impl DaemonChild {
    fn spawn(root: &Path) -> Result<DaemonChild, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let addrfile = root.join("addr.txt");
        let child = Command::new(exe)
            .arg(CHILD_FLAG)
            .arg(root.join("store"))
            .arg(&addrfile)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut daemon = DaemonChild {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(text) = std::fs::read_to_string(&addrfile) {
                if !text.trim().is_empty() {
                    daemon.addr = text.trim().to_owned();
                    return Ok(daemon);
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited early: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("daemon never published its address".to_owned())
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Wait for a requested shutdown to finish.
    fn wait(mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not shut down within 30 s".to_owned())
    }
}

impl Drop for DaemonChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// A byte stream that counts the time spent blocked in `read`, so the
/// frame decoder's own time is `read_frame` time minus this.
struct TimedRead {
    stream: TcpStream,
    read_ns: u64,
}

impl Read for TimedRead {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let t = Instant::now();
        let r = self.stream.read(buf);
        self.read_ns += t.elapsed().as_nanos() as u64;
        r
    }
}

/// One protocol connection driven with the service's public codec:
/// `encode_frame` out, `FrameReader` in.
struct Conn {
    writer: TcpStream,
    reader: FrameReader<TimedRead>,
    next_id: u64,
    decode_ns: u64,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, Error> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = FrameReader::new(TimedRead {
            stream: stream.try_clone()?,
            read_ns: 0,
        });
        Ok(Conn {
            writer: stream,
            reader,
            next_id: 1,
            decode_ns: 0,
        })
    }

    fn send(&mut self, request: &Request) -> Result<u64, Error> {
        let id = self.next_id;
        self.next_id += 1;
        self.writer
            .write_all(encode_frame(&request.to_frame(id)).as_bytes())?;
        Ok(id)
    }

    /// The next frame, or `None` if none arrived within `timeout`.
    fn recv(&mut self, timeout: Duration) -> Result<Option<JsonValue>, Error> {
        self.reader
            .get_ref()
            .stream
            .set_read_timeout(Some(timeout.max(Duration::from_micros(100))))?;
        let read_before = self.reader.get_ref().read_ns;
        let t = Instant::now();
        let frame = self.reader.read_frame();
        let spent = t.elapsed().as_nanos() as u64;
        self.decode_ns += spent.saturating_sub(self.reader.get_ref().read_ns - read_before);
        match frame? {
            Frame::Value(v) => Ok(Some(v)),
            Frame::TimedOut => Ok(None),
            Frame::Eof => Err(Error::protocol("daemon closed the connection")),
        }
    }

    /// Synchronous request/reply (only on a connection without pushes).
    fn call(&mut self, request: &Request) -> Result<Reply, Error> {
        let id = self.send(request)?;
        let deadline = Instant::now() + REQUEST_TIMEOUT * 6;
        while Instant::now() < deadline {
            if let Some(v) = self.recv(Duration::from_millis(100))? {
                let (got, reply) = Reply::from_frame(&v, request.op())?;
                if got == id {
                    return reply;
                }
            }
        }
        Err(Error::protocol(format!("{} timed out", request.op())))
    }
}

fn metas(ctx: &Ctx, unit: usize) -> Vec<ExperimentMeta> {
    let spec = BenchSpec {
        preset: PRESET.to_owned(),
        seed: SURFACE_SEED,
    };
    let bench = spec.build().expect("preset exists");
    let space = bench.space().clone();
    let asha = Asha::new(space.clone(), AshaConfig::new(1.0, 256.0, 4.0));
    (0..EXPERIMENTS)
        .map(|i| ExperimentMeta {
            name: format!("exp-{i}"),
            space: space.clone(),
            initial: SchedulerState::Asha(asha.export_state()),
            sampler: None,
            seed: ctx.run_seed((unit * EXPERIMENTS + i) as u64),
            sim: SimConfig::new(WORKERS, HORIZON).with_max_jobs(MAX_JOBS),
            bench: spec.clone(),
        })
        .collect()
}

/// What the subscriber connection saw of one experiment's stream.
#[derive(Debug, Default, Clone)]
struct Stream {
    events: u64,
    /// The last event, for the mismatch message.
    last: Option<JsonValue>,
    /// Status pushes the daemon reported dropped (`lag` pushes).
    lagged: u64,
    next_seq: u64,
    ended: Option<Instant>,
    error: Option<String>,
}

impl Stream {
    fn apply(&mut self, push: Push) {
        match push {
            Push::Event { data, .. } => {
                self.events += 1;
                if let Some(seq) = data.get("seq").and_then(JsonValue::as_u64) {
                    if seq != self.next_seq && self.error.is_none() {
                        self.error = Some(format!("seq {seq} where {} was due", self.next_seq));
                    }
                    self.next_seq = seq + 1;
                }
                self.last = Some(data);
            }
            // Only status pushes are lossy (a full queue drops them and a
            // `lag` push says how many); WAL events are never dropped, and
            // the seq and length checks would catch it if they were.
            Push::Lag { dropped, .. } => self.lagged += dropped,
            Push::Status { .. } => {}
            Push::Rewind { .. } => {
                self.error.get_or_insert("stream rewound".to_owned());
            }
            Push::End { .. } => self.ended = Some(Instant::now()),
        }
    }
}

/// The subscriber: subscribe to every experiment from seq 0, then read
/// pushes until each stream has ended.
fn subscriber(
    addr: &str,
    names: &[String],
    subscribed: mpsc::Sender<Result<(), String>>,
    done: &AtomicBool,
) -> (Vec<Stream>, u64) {
    let mut streams = vec![Stream::default(); names.len()];
    let fail_all = |streams: &mut Vec<Stream>, e: String| {
        for s in streams.iter_mut().filter(|s| s.ended.is_none()) {
            s.error.get_or_insert(e.clone());
        }
    };
    let mut conn = match Conn::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            let _ = subscribed.send(Err(e.to_string()));
            done.store(true, Ordering::SeqCst);
            return (streams, 0);
        }
    };
    let mut ids = Vec::new();
    for name in names {
        let request = Request::Subscribe {
            name: name.clone(),
            from_seq: 0,
        };
        match conn.send(&request) {
            Ok(id) => ids.push(id),
            Err(e) => fail_all(&mut streams, e.to_string()),
        }
    }
    // Pushes may arrive before the reply that names their subscription;
    // they wait here until it does.
    let mut early: Vec<Push> = Vec::new();
    let mut subs: Vec<Option<u64>> = vec![None; names.len()];
    let mut announced = false;
    let mut last_frame = Instant::now();
    while streams
        .iter()
        .any(|s| s.ended.is_none() && s.error.is_none())
    {
        let frame = match conn.recv(Duration::from_millis(200)) {
            Ok(Some(v)) => v,
            Ok(None) if last_frame.elapsed() < STREAM_TIMEOUT => continue,
            Ok(None) => {
                fail_all(&mut streams, "stream stalled".to_owned());
                break;
            }
            Err(e) => {
                fail_all(&mut streams, e.to_string());
                break;
            }
        };
        last_frame = Instant::now();
        if Push::is_push_frame(&frame) {
            match Push::from_frame(&frame) {
                Ok(push) => match subs.iter().position(|&s| s == Some(push.sub())) {
                    Some(i) => streams[i].apply(push),
                    None => early.push(push),
                },
                Err(e) => fail_all(&mut streams, e.to_string()),
            }
            continue;
        }
        match Reply::from_frame(&frame, "subscribe") {
            Ok((id, reply)) => {
                let Some(i) = ids.iter().position(|&x| x == id) else {
                    fail_all(&mut streams, format!("reply to unknown request {id}"));
                    continue;
                };
                match reply {
                    Ok(Reply::Subscribed { sub }) => {
                        subs[i] = Some(sub);
                        for push in early.extract_if(.., |p| p.sub() == sub) {
                            streams[i].apply(push);
                        }
                    }
                    other => streams[i].error = Some(format!("subscribe answered {other:?}")),
                }
            }
            Err(e) => fail_all(&mut streams, e.to_string()),
        }
        if !announced && subs.iter().all(Option::is_some) {
            announced = true;
            let _ = subscribed.send(Ok(()));
        }
    }
    if !announced {
        let _ = subscribed.send(Err("subscriptions were not acknowledged".to_owned()));
    }
    done.store(true, Ordering::SeqCst);
    (streams, conn.decode_ns)
}

/// The control mix: status of one experiment, list, ping, in turn.
fn control_request(i: u64, names: &[String]) -> Request {
    match i % 3 {
        0 => Request::Status {
            name: names[(i / 3) as usize % names.len()].clone(),
        },
        1 => Request::List,
        _ => Request::Ping,
    }
}

fn reply_matches(request: &Request, reply: &Reply, experiments: usize) -> bool {
    match (request, reply) {
        (Request::Status { name }, Reply::Status(s)) => &s.name == name,
        (Request::List, Reply::List(rows)) => rows.len() == experiments,
        (Request::Ping, Reply::Pong) => true,
        _ => false,
    }
}

/// Per-thread-role CPU of the daemon over the traced unit.
#[derive(Debug, Default)]
struct CpuRoles {
    base_s: f64,
    reactor: f64,
    worker: f64,
    run: f64,
    tailer: f64,
    commit: f64,
    other: f64,
}

fn cpu_roles(start: &ThreadCpu, end: &ThreadCpu, pool: &[u32], base_s: f64) -> CpuRoles {
    let mut roles = CpuRoles {
        base_s,
        ..CpuRoles::default()
    };
    for (tid, (comm, cpu)) in &end.threads {
        let before = start.threads.get(tid).map_or(0.0, |(_, c)| *c);
        let used = cpu - before;
        // Unnamed threads inherit their spawner's name: an experiment's run
        // thread, started from a request, carries the worker pool's name
        // but was not in the pool before the experiments started.
        let slot = if comm.starts_with("asha-serve-reac") {
            &mut roles.reactor
        } else if comm.starts_with("asha-serve-work") {
            if pool.contains(tid) {
                &mut roles.worker
            } else {
                &mut roles.run
            }
        } else if comm.starts_with("asha-serve-tail") {
            &mut roles.tailer
        } else if comm.starts_with("asha-commit") {
            &mut roles.commit
        } else {
            &mut roles.other
        };
        *slot += used;
    }
    roles
}

/// Everything one unit measured.
#[derive(Default)]
struct UnitOut {
    notes: Vec<String>,
    setup_s: f64,
    wall_s: f64,
    jobs: u64,
    store_bytes: u64,
    losses: Vec<f64>,
    peak_rss_mb: f64,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    decode_s: f64,
    metrics: Option<JsonValue>,
    cpu: Option<CpuRoles>,
}

fn unit(
    ctx: &Ctx,
    root: &Path,
    u: usize,
    trace: bool,
    outcomes: &mut Outcomes,
) -> Result<UnitOut, String> {
    let mut out = UnitOut::default();
    let t_setup = Instant::now();
    let daemon = DaemonChild::spawn(root)?;
    let mut control = Conn::connect(&daemon.addr).map_err(|e| e.to_string())?;
    outcomes.check("ping the new daemon", control.call(&Request::Ping));
    out.setup_s = t_setup.elapsed().as_secs_f64();

    let metas = metas(ctx, u);
    let names: Vec<String> = metas.iter().map(|m| m.name.clone()).collect();
    let opts = RunOptions::default();
    for meta in &metas {
        outcomes.check(
            "create an experiment",
            control.call(&Request::Create {
                meta: meta.clone(),
                opts,
            }),
        );
    }
    let pid = daemon.pid();
    let mut cpu_start = ThreadCpu::default();
    let mut cpu_now = ThreadCpu::default();
    let mut cpu_base = 0.0;
    if trace {
        cpu_start.sample(pid);
        cpu_now.sample(pid);
        cpu_base = process_cpu_s(pid).unwrap_or(0.0);
    }
    let pool: Vec<u32> = cpu_start.threads.keys().copied().collect();

    let done = AtomicBool::new(false);
    let (sub_tx, sub_rx) = mpsc::channel();
    let mut pending: VecDeque<(u64, u64, Request)> = VecDeque::new();
    let (streams, sub_decode_ns, t_start) = std::thread::scope(|scope| {
        let sub = scope.spawn(|| subscriber(&daemon.addr, &names, sub_tx, &done));
        let ready = sub_rx.recv().unwrap_or(Err("subscriber died".to_owned()));
        outcomes.check("subscribe to every experiment", ready);
        let t_start = Instant::now();
        for name in &names {
            outcomes.check(
                "start an experiment",
                control.call(&Request::Start {
                    name: name.clone(),
                    opts,
                }),
            );
        }
        // Open loop on the control connection, until every stream ended.
        let clock = Instant::now();
        let now = || clock.elapsed().as_secs_f64();
        let sched = OpenLoop {
            start: now(),
            interval: 1.0 / RATE_HZ,
        };
        let mut next = 0u64;
        let mut last_sample = Instant::now();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let finished = done.load(Ordering::SeqCst);
            if finished {
                let deadline =
                    *drain_deadline.get_or_insert_with(|| Instant::now() + REQUEST_TIMEOUT);
                if pending.is_empty() || Instant::now() > deadline {
                    break;
                }
            }
            while !finished && now() >= sched.due(next) {
                let request = control_request(next, &names);
                match control.send(&request) {
                    Ok(id) => {
                        out.late_ms.push(1e3 * sched.lateness(next, now()));
                        pending.push_back((id, next, request));
                    }
                    Err(e) => {
                        outcomes.check::<(), _>("send a control request", Err(e));
                    }
                }
                next += 1;
            }
            // Requests overdue by more than the timeout count as failed.
            while let Some((_, i, _)) = pending.front() {
                if now() - sched.due(*i) > REQUEST_TIMEOUT.as_secs_f64() {
                    pending.pop_front();
                    outcomes.check::<(), _>("control request", Err("timed out"));
                } else {
                    break;
                }
            }
            if trace && last_sample.elapsed() >= SAMPLE_EVERY {
                cpu_now.sample(pid);
                last_sample = Instant::now();
            }
            let wait = if finished {
                Duration::from_millis(10)
            } else {
                Duration::from_secs_f64((sched.due(next) - now()).clamp(0.0001, 0.05))
            };
            match control.recv(wait) {
                Ok(Some(frame)) => {
                    let done_at = now();
                    let Some(pos) = pending.iter().position(|(id, _, _)| {
                        frame.get("id").and_then(JsonValue::as_u64) == Some(*id)
                    }) else {
                        outcomes
                            .check::<(), _>("control reply", Err("reply to no pending request"));
                        continue;
                    };
                    let (_, i, request) = pending.remove(pos).expect("position is in range");
                    let ok = match Reply::from_frame(&frame, request.op()) {
                        Ok((_, Ok(reply))) => reply_matches(&request, &reply, names.len()),
                        _ => false,
                    };
                    outcomes.record(ok);
                    out.latencies_ms.push(1e3 * sched.latency(i, done_at));
                }
                Ok(None) => {}
                Err(e) => {
                    outcomes.check::<(), _>("control connection", Err(e));
                    break;
                }
            }
        }
        for _ in pending.drain(..) {
            outcomes.check::<(), _>("control request", Err("unanswered at the end"));
        }
        let (streams, decode_ns) = sub.join().unwrap_or_default();
        (streams, decode_ns, t_start)
    });
    out.decode_s = (control.decode_ns + sub_decode_ns) as f64 * 1e-9;
    out.wall_s = streams
        .iter()
        .filter_map(|s| s.ended)
        .max()
        .map_or(f64::NAN, |end| end.duration_since(t_start).as_secs_f64());

    if trace {
        cpu_now.sample(pid);
        let base = process_cpu_s(pid).unwrap_or(f64::NAN) - cpu_base;
        out.cpu = Some(cpu_roles(&cpu_start, &cpu_now, &pool, base));
    }
    out.peak_rss_mb = peak_rss_mb(Some(pid)).unwrap_or(f64::NAN);
    out.metrics = match control.call(&Request::Metrics) {
        Ok(Reply::Metrics(m)) => Some(m),
        _ => None,
    };
    out.store_bytes = dir_bytes(&root.join("store"));

    let lagged: u64 = streams.iter().map(|s| s.lagged).sum();
    if lagged > 0 {
        out.notes.push(format!(
            "{lagged} status pushes dropped (reported by lag pushes)"
        ));
    }
    // Checks against the store and against in-memory runs.
    for (meta, stream) in metas.iter().zip(&streams) {
        let ok = outcomes.check(
            &format!("{} stream ends gap-free", meta.name),
            match (&stream.error, stream.ended) {
                (Some(e), _) => Err(e.clone()),
                (None, None) => Err("no end".to_owned()),
                (None, Some(_)) => Ok(()),
            },
        );
        let wal = outcomes.check(
            "read back an experiment WAL",
            read_wal(&root.join("store").join(&meta.name).join(WAL_FILE)),
        );
        let Some(wal) = wal else { continue };
        if ok.is_some() {
            outcomes.check(
                &format!("{} stream length equals its WAL", meta.name),
                if stream.events == wal.records.len() as u64 {
                    Ok(())
                } else {
                    Err(format!(
                        "{} events streamed, ending with {}; WAL holds {} records, ending with {}",
                        stream.events,
                        stream
                            .last
                            .as_ref()
                            .map_or(String::new(), JsonValue::render_compact),
                        wal.records.len(),
                        wal.records
                            .iter()
                            .rev()
                            .take(2)
                            .map(|r| r.render_jsonl())
                            .collect::<Vec<_>>()
                            .join(" after ")
                    ))
                },
            );
        }
        let bench = meta.bench.build().map_err(|e| e.to_string())?;
        let twin = reference(meta, &bench as &dyn BenchmarkModel);
        if outcomes
            .check(
                &format!("{} WAL equals its in-memory run", meta.name),
                same_events(&wal, &twin.events),
            )
            .is_some()
        {
            out.jobs += twin.result.jobs_completed as u64;
            out.losses.push(final_loss(&twin.result));
        }
    }
    outcomes.check("shut the daemon down", control.call(&Request::Shutdown));
    drop(control);
    outcomes.check("daemon exits cleanly", daemon.wait());
    let _ = std::fs::remove_dir_all(root.join("store"));
    let _ = std::fs::remove_file(root.join("addr.txt"));
    Ok(out)
}

/// Set-up alone: spawn the daemon, ping it, shut it down.
fn setup_only(root: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let daemon = DaemonChild::spawn(root)?;
    let mut control = Conn::connect(&daemon.addr).map_err(|e| e.to_string())?;
    control.call(&Request::Ping).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    control
        .call(&Request::Shutdown)
        .map_err(|e| e.to_string())?;
    drop(control);
    daemon.wait()?;
    let _ = std::fs::remove_dir_all(root.join("store"));
    let _ = std::fs::remove_file(root.join("addr.txt"));
    Ok(secs)
}

fn hist(v: Option<&JsonValue>) -> Option<HistogramSnapshot> {
    v.and_then(HistogramSnapshot::from_json)
}

fn p99_ms(h: Option<HistogramSnapshot>) -> f64 {
    h.filter(|h| h.count() > 0)
        .map_or(0.0, |h| h.quantile(0.99) * 1e3)
}

/// The per-op request histograms of a metrics snapshot, merged.
fn merged_by_op(m: &JsonValue, key: &str) -> Option<HistogramSnapshot> {
    let JsonValue::Obj(ops) = m.get("requests")?.get("by_op")? else {
        return None;
    };
    let mut merged: Option<HistogramSnapshot> = None;
    for (_, cells) in ops {
        if let Some(h) = hist(cells.get(key)) {
            match &mut merged {
                Some(acc) => acc.merge(&h),
                None => merged = Some(h),
            }
        }
    }
    merged
}

fn int(m: &JsonValue, path: &[&str]) -> f64 {
    let mut v = Some(m);
    for key in path {
        v = v.and_then(|x| x.get(key));
    }
    v.and_then(JsonValue::as_f64).unwrap_or(0.0)
}

pub fn run(ctx: &Ctx, trace: bool) -> Result<Report, String> {
    let scratch = ScratchDir::create(
        &ctx.work,
        &format!("{NAME}-{}", std::process::id()),
        DISK_NEED,
    )?;
    let mut report = Report::default();
    let mut outs = Vec::new();
    let mut traced_out = None;
    for (u, traced) in ctx.plan(trace, NOMINAL_UNIT_S) {
        match unit(ctx, scratch.path(), u, traced, &mut report.outcomes) {
            Ok(mut out) => {
                report.notes.append(&mut out.notes);
                if traced {
                    traced_out = Some(out);
                } else {
                    outs.push(out);
                }
            }
            Err(e) => {
                report.outcomes.check::<(), _>("service unit", Err(e));
            }
        }
    }
    for (u, o) in outs.iter().enumerate() {
        report.notes.push(format!(
            "unit {u}: {} jobs in {:.4} s = {:.1} jobs/s, {} control requests, daemon peak {:.1} MiB, set-up {:.6} s",
            o.jobs,
            o.wall_s,
            o.jobs as f64 / o.wall_s,
            o.latencies_ms.len(),
            o.peak_rss_mb,
            o.setup_s
        ));
    }
    let mut setups: Vec<f64> = outs.iter().map(|o| o.setup_s).collect();
    for _ in setups.len()..MIN_SETUPS {
        if let Some(s) = report
            .outcomes
            .check("daemon set-up", setup_only(scratch.path()))
        {
            setups.push(s);
        }
    }
    let untraced: Vec<&UnitOut> = outs.iter().collect();
    if untraced.is_empty() {
        return Err("no unit completed".to_owned());
    }
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect();
    let losses: Vec<f64> = untraced
        .iter()
        .flat_map(|o| o.losses.iter().copied())
        .collect();
    report.set("setup_s", median(&setups));
    report.set(
        "jobs_per_s",
        median(
            &untraced
                .iter()
                .map(|o| o.jobs as f64 / o.wall_s)
                .collect::<Vec<_>>(),
        ),
    );
    report.set(
        "final_loss",
        losses.iter().sum::<f64>() / losses.len() as f64,
    );
    report.set(
        "peak_rss_mb",
        median(&untraced.iter().map(|o| o.peak_rss_mb).collect::<Vec<_>>()),
    );
    report.set(
        "store_bytes_per_job",
        median(
            &untraced
                .iter()
                .map(|o| o.store_bytes as f64 / o.jobs as f64)
                .collect::<Vec<_>>(),
        ),
    );
    report.set("ctl_n", latencies.len() as f64);
    report.set(
        "ctl_p50_ms",
        supported_percentile(&latencies, 50.0).unwrap_or(f64::NAN),
    );
    match supported_percentile(&latencies, 99.0) {
        Some(p99) => {
            report.set("ctl_p99_ms", p99);
            report.notes.push(format!(
                "ctl p99 {p99:.3} ms over {} requests at {RATE_HZ} req/s open loop: {} the {P99_LIMIT_MS} ms limit",
                latencies.len(),
                if p99 <= P99_LIMIT_MS { "within" } else { "ABOVE" }
            ));
        }
        None => {
            // Too few samples for a p99: the value is not reported, which
            // makes the run incorrect; the note names the tail that exists.
            report.set("ctl_p99_ms", f64::NAN);
            report.notes.push(match tail_percentile(&latencies) {
                Some(t) => format!(
                    "only {} control requests: p{} = {:.3} ms is the highest supported tail",
                    t.n, t.pct, t.value
                ),
                None => format!("only {} control requests", latencies.len()),
            });
        }
    }
    if let Some(traced) = &traced_out {
        traced_metrics(&mut report, traced);
        report.overhead(
            traced.wall_s,
            &untraced.iter().map(|o| o.wall_s).collect::<Vec<_>>(),
        );
        let late: Vec<f64> = untraced
            .iter()
            .flat_map(|o| o.late_ms.iter().copied())
            .collect();
        report.set(
            "loadgen.late_p99_ms",
            supported_percentile(&late, 99.0).unwrap_or(f64::NAN),
        );
    }
    report.set("error_rate", report.outcomes.error_rate());
    Ok(report)
}

fn traced_metrics(report: &mut Report, traced: &UnitOut) {
    if let Some(cpu) = &traced.cpu {
        let mut ledger = Ledger::new(
            "daemon CPU seconds over the traced unit (all threads)",
            cpu.base_s,
        );
        ledger.add("sim.run_cpu_s", cpu.run);
        ledger.add("service.reactor_cpu_s", cpu.reactor);
        ledger.add("service.worker_cpu_s", cpu.worker);
        ledger.add("service.tailer_cpu_s", cpu.tailer);
        ledger.add("store.commit_cpu_s", cpu.commit);
        ledger.add("service.other_cpu_s", cpu.other);
        report.ledger(&ledger);
        report.notes.push(format!(
            "daemon CPU {:.4} s over a {:.4} s traced wall on {} cores ({:.1}% busy)",
            cpu.base_s,
            traced.wall_s,
            std::thread::available_parallelism().map_or(1, usize::from),
            100.0 * cpu.base_s
                / (traced.wall_s
                    * std::thread::available_parallelism().map_or(1, usize::from) as f64)
        ));
    }
    report.set("service.codec_decode_s", traced.decode_s);
    if let Some(m) = &traced.metrics {
        report.set("service.requests_n", int(m, &["requests", "total"]));
        report.set("service.request_errors", int(m, &["requests", "errors"]));
        report.set(
            "service.queue_wait_p99_ms",
            p99_ms(merged_by_op(m, "queue_wait")),
        );
        report.set("service.execute_p99_ms", p99_ms(merged_by_op(m, "execute")));
        report.set(
            "service.reactor_iterations",
            int(m, &["reactor", "iterations"]),
        );
        report.set(
            "service.events_lagged",
            int(m, &["subscriptions", "events_lagged"]),
        );
        let fanout = match m.get("tailers") {
            Some(JsonValue::Obj(rows)) => {
                rows.iter().map(|(_, t)| int(t, &["fanout_frames"])).sum()
            }
            _ => 0.0,
        };
        report.set("service.fanout_frames", fanout);
        let store = m.get("store");
        if let Some(h) = hist(store.and_then(|s| s.get("wal_append"))) {
            report.set("store.wal_append_n", h.count() as f64);
            report.set("store.wal_append_s", h.sum());
        }
        if let Some(h) = hist(store.and_then(|s| s.get("wal_fsync"))) {
            report.set("store.wal_fsync_n", h.count() as f64);
            report.set("store.wal_fsync_s", h.sum());
            report.set("store.commit_wait_s", h.sum());
        }
        let full = hist(store.and_then(|s| s.get("snapshot_write")));
        let delta = hist(store.and_then(|s| s.get("snapshot_delta_write")));
        report.set(
            "store.snapshot_full_s",
            full.as_ref().map_or(0.0, HistogramSnapshot::sum),
        );
        report.set(
            "store.snapshot_delta_s",
            delta.as_ref().map_or(0.0, HistogramSnapshot::sum),
        );
        report.set(
            "store.checkpoint_n",
            (full.map_or(0, |h| h.count()) + delta.map_or(0, |h| h.count())) as f64,
        );
        report.set(
            "store.commit_requests",
            int(m, &["store", "group_commit_requests"]),
        );
        report.set(
            "store.commit_fsyncs",
            int(m, &["store", "group_commit_fsyncs"]),
        );
    }
    report.set("store.bytes_written", traced.store_bytes as f64);
}
