//! The serve stage: an in-process `limpet-serve` daemon on loopback TCP
//! with one worker per core, over the disk-cache directory the start
//! stage filled (checkpoint snapshots land beside it at their default
//! cadence). A closed loop of one client thread per core submits the
//! seeded job sequence; each client sends its next job only after
//! `done` for the previous one, as a simulation caller waiting for its
//! result would.
//!
//! Clients send each request line in one `write` on a `TCP_NODELAY`
//! socket, so the latencies are the daemon's own and carry no
//! client-side Nagle stall.

use crate::gen::{Job, Shape};
use crate::report::Checks;
use crate::trace::Tracer;
use limpet_harness::{shutdown, Simulation, SnapshotStore, Workload};
use serve::{Json, Listen, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A daemon serving on a background thread.
#[derive(Debug)]
pub struct Daemon {
    addr: String,
    thread: std::thread::JoinHandle<()>,
}

impl Daemon {
    /// Starts the daemon over `cache_dir` with `workers` workers.
    ///
    /// # Errors
    ///
    /// Returns the daemon's start-up I/O error.
    pub fn start(cache_dir: &Path, workers: usize) -> std::io::Result<Daemon> {
        let server = Server::start(ServerConfig {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            workers,
            cache_dir: Some(cache_dir.to_path_buf()),
            ..ServerConfig::default()
        })?;
        let addr = server.local_addr().to_string();
        let thread = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || server.serve_forever())?;
        Ok(Daemon { addr, thread })
    }

    /// Stops the daemon and joins every thread it started. The shutdown
    /// flag latches, so a process runs at most one daemon.
    pub fn stop(self) {
        shutdown::request();
        if self.thread.join().is_err() {
            eprintln!("perfbench: daemon thread panicked");
        }
    }
}

/// Client-side timestamps of one job.
#[derive(Debug, Clone)]
pub struct Timing {
    /// The job.
    pub job: Job,
    /// Client thread that ran it.
    pub lane: usize,
    /// Before the request was written.
    pub submit: Instant,
    /// `accepted` read, or the first `chunk` when `accepted` came later.
    pub accepted: Instant,
    /// Whether `accepted` came after the job's first `chunk`: the daemon
    /// hands the job to a worker before it queues the `accepted` line,
    /// so the worker's events can overtake it.
    pub late_accept: bool,
    /// First and last `chunk` read.
    pub first_chunk: Instant,
    /// See [`Timing::first_chunk`].
    pub last_chunk: Instant,
    /// `done` read.
    pub done: Instant,
    /// Digest the daemon reported.
    pub digest: u64,
}

impl Timing {
    /// Submit to `done`, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.submit).as_secs_f64() * 1e3
    }
}

/// Why a job did not complete.
#[derive(Debug, Clone)]
pub enum JobError {
    /// Admission refused it (413/429/503).
    Rejected(u64),
    /// Anything else: a failed job, a protocol or I/O error.
    Failed(String),
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: &str) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            line: String::new(),
        })
    }

    fn next_event(&mut self) -> Result<Json, JobError> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err(JobError::Failed("daemon closed the connection".into())),
            Ok(_) => Json::parse(self.line.trim()).map_err(JobError::Failed),
            Err(e) => Err(JobError::Failed(format!("read failed: {e}"))),
        }
    }

    fn run(&mut self, job: &Job, lane: usize) -> Result<Timing, JobError> {
        let s = job.shape;
        let request = format!(
            "{}\n",
            Json::obj(vec![
                ("verb", Json::str("submit")),
                ("id", Json::str(&job.id)),
                ("tenant", Json::str(job.tenant)),
                ("model", Json::str(s.model)),
                ("config", Json::str(s.config)),
                ("cells", s.cells.into()),
                ("steps", s.steps.into()),
            ])
        );
        let submit = Instant::now();
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| JobError::Failed(format!("write failed: {e}")))?;
        let (mut accepted, mut first_chunk, mut last_chunk) = (None, None, None);
        let mut done: Option<(Instant, u64)> = None;
        // The job ends with its `done` and its `accepted`, in either order.
        while done.is_none() || accepted.is_none() {
            let ev = self.next_event()?;
            let now = Instant::now();
            match ev.get("event").and_then(Json::as_str) {
                Some("accepted") => accepted = Some(now),
                Some("chunk") => {
                    first_chunk.get_or_insert(now);
                    last_chunk = Some(now);
                }
                Some("rejected") => {
                    let code = ev.get("code").and_then(Json::as_u64).unwrap_or(0);
                    return Err(JobError::Rejected(code));
                }
                Some("done") => {
                    let status = ev.get("status").and_then(Json::as_str).unwrap_or("");
                    if status != "done" {
                        return Err(JobError::Failed(format!("{}: status {status}", job.id)));
                    }
                    let digest = ev
                        .get("digest")
                        .and_then(Json::as_str)
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or_else(|| JobError::Failed(format!("{}: no digest", job.id)))?;
                    done = Some((now, digest));
                }
                other => {
                    return Err(JobError::Failed(format!(
                        "{}: unexpected event {other:?}: {}",
                        job.id,
                        self.line.trim()
                    )))
                }
            }
        }
        let (Some(accepted), Some(first_chunk), Some(last_chunk), Some((done, digest))) =
            (accepted, first_chunk, last_chunk, done)
        else {
            return Err(JobError::Failed(format!("{}: missing events", job.id)));
        };
        Ok(Timing {
            job: job.clone(),
            lane,
            submit,
            accepted: accepted.min(first_chunk),
            late_accept: accepted > first_chunk,
            first_chunk,
            last_chunk,
            done,
            digest,
        })
    }
}

/// What the timed serve loop produced.
#[derive(Debug, Default)]
pub struct ServeOut {
    /// Jobs attempted: the next loop's first job index.
    pub jobs: usize,
    /// Completed jobs.
    pub done: Vec<Timing>,
    /// Jobs refused by admission.
    pub rejected: u64,
    /// Loop wall time, seconds.
    pub wall_s: f64,
}

impl ServeOut {
    /// Adds the jobs and wall time of a later [`run_loop`].
    pub fn append(&mut self, later: ServeOut) {
        self.jobs += later.jobs;
        self.done.extend(later.done);
        self.rejected += later.rejected;
        self.wall_s += later.wall_s;
    }
}

/// How much closed-loop load to offer.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Client threads, one connection each.
    pub clients: usize,
    /// Keep taking jobs until this much time has passed…
    pub budget: Duration,
    /// …and at least this many jobs were taken.
    pub min_jobs: usize,
}

/// Runs jobs `job(0), job(1), …` under `load`. Every job's digest is
/// checked against `refs`.
pub fn run_loop(
    daemon: &Daemon,
    load: Load,
    job: &(dyn Fn(usize) -> Job + Sync),
    refs: &std::collections::BTreeMap<Shape, u64>,
    tr: &Tracer,
    checks: &mut Checks,
) -> ServeOut {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Result<Timing, JobError>>> = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for lane in 1..=load.clients {
            let (next, results) = (&next, &results);
            scope.spawn(move || {
                let t0 = Instant::now();
                let mut client = match Client::connect(&daemon.addr) {
                    Ok(c) => c,
                    Err(e) => {
                        let err = JobError::Failed(format!("connect failed: {e}"));
                        results.lock().expect("results lock").push(Err(err));
                        return;
                    }
                };
                let root = tr.enabled().then(|| {
                    tr.record(
                        "serve.client",
                        &format!("client-{lane}"),
                        None,
                        lane,
                        t0,
                        t0,
                    )
                });
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= load.min_jobs && start.elapsed() >= load.budget {
                        break;
                    }
                    let r = client.run(&job(i), lane);
                    results.lock().expect("results lock").push(r);
                }
                if let Some(root) = root {
                    tr.close(root);
                }
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let results = results.into_inner().expect("results lock");
    let mut out = ServeOut {
        jobs: results.len(),
        done: Vec::new(),
        rejected: 0,
        wall_s,
    };
    for r in results {
        match r {
            Ok(t) => {
                match refs.get(&t.job.shape) {
                    Some(&d) if d == t.digest => checks.ok(),
                    _ => checks.fail(format!(
                        "serve {}: digest differs from trajectory_digest",
                        t.job.id
                    )),
                }
                out.done.push(t);
            }
            Err(JobError::Rejected(code)) => {
                out.rejected += 1;
                checks.fail(format!("serve: job rejected with {code}"));
            }
            Err(JobError::Failed(e)) => checks.fail(format!("serve: {e}")),
        }
    }
    if tr.enabled() {
        record_job_spans(tr, &out.done);
    }
    out
}

/// Records each job's event-stream phases as spans under its client.
fn record_job_spans(tr: &Tracer, done: &[Timing]) {
    let roots: std::collections::BTreeMap<usize, usize> = tr
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve.client")
        .map(|(i, s)| (s.lane, i))
        .collect();
    for t in done {
        let parent = roots.get(&t.lane).copied();
        let job = tr.record("serve.job", &t.job.id, parent, t.lane, t.submit, t.done);
        let j = Some(job);
        tr.record("serve.admit", &t.job.id, j, t.lane, t.submit, t.accepted);
        tr.record(
            "serve.queue",
            &t.job.id,
            j,
            t.lane,
            t.accepted,
            t.first_chunk,
        );
        tr.record(
            "serve.run",
            &t.job.id,
            j,
            t.lane,
            t.first_chunk,
            t.last_chunk,
        );
        tr.record("serve.tail", &t.job.id, j, t.lane, t.last_chunk, t.done);
    }
}

/// Median time of `SnapshotStore::save` for a snapshot of each shape
/// taken after one default-size chunk, ms.
///
/// # Errors
///
/// Returns the store's I/O error.
pub fn checkpoint_save_ms(shapes: &[Shape], dir: &Path) -> std::io::Result<f64> {
    let store = SnapshotStore::new(dir)?;
    let mut ms = Vec::new();
    for s in shapes {
        let model = limpet_models::model(s.model);
        let config = serve::parse_config(s.config).map_err(std::io::Error::other)?;
        let wl = Workload {
            n_cells: s.cells,
            steps: 0,
            dt: 0.01,
        };
        let mut sim = Simulation::new(&model, config, &wl);
        sim.run(32);
        let snap = sim.snapshot(s.config, 32);
        for _ in 0..3 {
            let t = Instant::now();
            store.save("checkpoint-probe", &snap)?;
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(crate::report::median(&ms))
}
