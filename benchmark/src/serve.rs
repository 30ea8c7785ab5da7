//! The three workloads that drive `bepi serve` over HTTP, from outside:
//!
//! * `serve-cold` — open loop, distinct seeds, the response cache never
//!   hits: the solver dominates and admission queue, HTTP, serialise and
//!   socket ride on top.
//! * `serve-hot` — open loop, Zipf popularity against the default cache:
//!   the median is a cache hit, the tail a miss queued behind misses.
//! * `live-mixed` — the Zipf read mix beside one 16-edge `POST /edges`
//!   per interval, four numeric-safe batches then one structural.
//!
//! They share everything but their shape, so they share this file.

use crate::check::RESIDUAL_LIMIT;
use crate::daemon::{self, Daemon};
use crate::http::{self, Conn, Response};
use crate::openloop::{self, Outcome};
use crate::oracle::{self, Answer, BatchKind, Oracle, BATCH_EDGES};
use crate::sample::{poisson_arrivals, Rng, SeedClasses, Zipf};
use crate::spans::Source;
use crate::stats;
use crate::workload::{ms, us, RunConfig, RunOutput, Tracer, Workload, SETUP_REPEATS, TOP_K};
use bepi_core::persist::{load_mapped_file, save_file_v6};
use bepi_core::{BePi, EdgeUpdate};
use bepi_graph::Graph;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What tells the three workloads apart.
struct Shape {
    /// Open-loop `/query` arrivals per second (Poisson).
    rate: f64,
    /// Seeds in the popular head, drawn by Zipf(1.0); 0 for no head.
    head: usize,
    /// Share of requests that ask for a seed never asked before (a sure
    /// cache miss); the rest draw from the head.
    fresh_share: f64,
    /// Replay the whole head before the warm-up, so the window sees the
    /// cache as a long-running daemon's users do.
    prewarm: bool,
    /// Seconds between `POST /edges` batches; `None` on read-only workloads.
    write_interval: Option<f64>,
}

/// Rates are set for the graph each workload runs on (README): about 30 %
/// worker utilisation on two cores, so queueing is real and no request
/// is shed.
fn shape_of(workload: Workload) -> Shape {
    match workload {
        Workload::ServeCold => Shape {
            rate: 60.0,
            head: 0,
            fresh_share: 1.0,
            prewarm: false,
            write_interval: None,
        },
        // A head that fits the cache and stays in it, plus a long tail of
        // seeds asked once: the hit share is 87 % by construction, from
        // the first measured request to the last, instead of whatever a
        // sharded LRU makes of one seed's random popularity ranks (which
        // moved the median across the hit/miss cliff from run to run).
        Workload::ServeHot => Shape {
            rate: 100.0,
            head: 256,
            fresh_share: 0.13,
            prewarm: true,
            write_interval: None,
        },
        // Every swap empties the version-keyed cache, so only repeats
        // within one version hit: over the issue's full universe that is
        // ~20 % and the median stays a miss, clear of the cliff.
        Workload::LiveMixed => Shape {
            rate: 60.0,
            head: 1 << 14,
            fresh_share: 0.0,
            prewarm: false,
            write_interval: Some(1.0),
        },
        Workload::ExactCold => unreachable!("exact-cold is not an HTTP workload"),
    }
}

/// Seeds kept for fresh draws (beyond the head): more than any run sends.
const FRESH_POOL: usize = 1 << 14;

mod stream {
    pub const SEEDS: u64 = 1;
    pub const ARRIVALS: u64 = 2;
    pub const POPULARITY: u64 = 3;
}

/// One operation of the schedule.
#[derive(Debug, Clone, Copy)]
enum Op {
    Query { seed: usize, traced: bool },
    Edges { batch: usize },
}

/// Where the next query seed comes from: a Zipf draw over the head of the
/// pool, or the next never-used seed behind it.
#[derive(Clone)]
struct SeedSource {
    head: Option<Zipf>,
    fresh_share: f64,
    rng: Rng,
    /// Index into the pool of the next fresh seed.
    cursor: usize,
}

impl SeedSource {
    fn next(&mut self, pool: &[usize]) -> usize {
        match &self.head {
            Some(zipf) if self.rng.unit() >= self.fresh_share => pool[zipf.sample(&mut self.rng)],
            _ => {
                self.cursor += 1;
                // Wrapping would turn sure misses into hits; the run
                // checks `cursor` against the pool and fails if it did.
                pool[(self.cursor - 1) % pool.len()]
            }
        }
    }
}

/// What came back, with the instants the client saw.
struct Reply {
    op: Op,
    sent_at: Instant,
    done_at: Instant,
    response: Result<Response, String>,
}

pub fn run(cfg: &RunConfig, tracer: Tracer) -> Result<RunOutput, String> {
    let work = cfg.work_dir();
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(cfg, tracer, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(cfg: &RunConfig, tracer: Tracer, work: &Path) -> Result<RunOutput, String> {
    let shape = shape_of(cfg.workload);
    let live = shape.write_interval.is_some();
    let mut out = RunOutput::default();

    let set_up = set_up(cfg, &shape, work, &mut out)?;
    let addr = set_up.daemon.addr;
    let inputs = Inputs::generate(cfg, &shape, &set_up, work)?;
    let oracle = &inputs.oracle;

    if shape.prewarm {
        prewarm(addr, &inputs.seed_pool[..inputs.head])?;
    }
    let before = http::get(addr, "/metrics")?.body;
    let index_bytes = http::metric(&before, "bepi_index_heap_bytes").unwrap_or(0.0)
        + http::metric(&before, "bepi_index_mapped_bytes").unwrap_or(0.0);

    // The open loop: warm-up, then the window(s).
    let origin = Instant::now();
    let due: Vec<Duration> = inputs.plan.iter().map(|(at, _)| *at).collect();
    let outcomes = openloop::run_open_loop(&due, openloop::nproc(), |i| {
        execute(addr, inputs.plan[i].1, oracle)
    })?;
    let mut seeds = inputs.seeds.clone();
    let sat_start = Instant::now();
    let (sat_replies, sat_elapsed, posted) = closed_loop(cfg, addr, origin, &inputs, &mut seeds)?;
    if seeds.cursor > inputs.seed_pool.len() && !cfg.smoke {
        out.problem(format!(
            "{} fresh seeds were asked of a pool of {}: some repeated",
            seeds.cursor - inputs.head,
            inputs.seed_pool.len() - inputs.head
        ));
    }

    // Quiesce: every posted batch must become the served version.
    let final_version = 1 + posted as u64;
    if live {
        let deadline = Instant::now() + Duration::from_secs(10);
        while served_version(addr)? < final_version && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let after = http::get(addr, "/metrics")?.body;
    let delta = |name: &str| {
        http::metric(&after, name).unwrap_or(0.0) - http::metric(&before, name).unwrap_or(0.0)
    };

    // The first answer of the last set-up is checked like any other, and
    // on a live run twenty answers at the final version join it for the
    // lost-update check.
    let final_seeds = &inputs.seed_pool[..20.min(inputs.seed_pool.len())];
    let mut extra = vec![Reply {
        op: Op::Query {
            seed: 0,
            traced: false,
        },
        sent_at: origin,
        done_at: origin,
        response: set_up.first,
    }];
    if live {
        extra.extend(final_seeds.iter().map(|&seed| {
            execute(
                addr,
                Op::Query {
                    seed,
                    traced: false,
                },
                oracle,
            )
        }));
    }

    // Layer probes that need the daemon, before it goes.
    let probes = if cfg.traced {
        daemon_probes(cfg, addr, &oracle.versions[0], &inputs.seed_pool, work)?
    } else {
        BTreeMap::new()
    };
    set_up.daemon.stop();

    // ---- judge -------------------------------------------------------
    let seen = Seen::collect(cfg, tracer, outcomes, sat_replies, extra, &mut out);
    let c = oracle.versions[0].config().c;
    let verdicts =
        oracle::verify_answers(cfg, oracle, &seen.answers, c, final_seeds, final_version)?;
    for (i, verdict) in verdicts.wrong.iter().enumerate() {
        if let Some(why) = verdict {
            out.wrong += 1;
            let a = &seen.answers[i];
            out.problem(format!("seed {} at version {}: {why}", a.seed, a.version));
        }
    }
    if verdicts.residual_max > RESIDUAL_LIMIT || verdicts.residual_max.is_nan() {
        out.wrong += 1;
        out.problem(format!("raw-graph residual {:e}", verdicts.residual_max));
    }
    let writes = if live {
        let served = http::metric(&after, "bepi_graph_version").unwrap_or(0.0) as u64;
        let rebuilds = (
            delta("bepi_numeric_rebuilds_total"),
            delta("bepi_structural_rebuilds_total"),
        );
        judge_writes(
            &inputs,
            &seen,
            posted,
            served,
            rebuilds,
            verdicts.scratch_mismatches,
            &mut out,
        )
    } else {
        Writes::default()
    };

    let window_sorted = &seen.window_ms;
    if window_sorted.is_empty() {
        return Err("the measured window held no query".into());
    }
    // Correct answers per second, as the median over fifths of the phase.
    let sat_done: Vec<f64> = seen
        .sat_range
        .clone()
        .filter(|&i| verdicts.wrong[i].is_none())
        .map(|i| (seen.sat_done[i - seen.sat_range.start] - sat_start).as_secs_f64())
        .collect();
    let sat_qps = stats::median_rate(&sat_done, sat_elapsed.as_secs_f64(), 5);
    if !cfg.traced {
        out.set_end_to_end([
            stats::median(&set_up.setups),
            index_bytes,
            stats::percentile(window_sorted, 0.5),
            sat_qps,
        ]);
        return Ok(out);
    }

    // ---- per-layer ---------------------------------------------------
    for (name, value) in probes {
        out.set(name, value);
    }
    let s = oracle.versions[0].stats();
    out.set("core.s_nnz", s.s_nnz as f64);
    out.set("core.h11_inv_nnz", s.h11_inv_nnz as f64);
    out.set("core.n2", s.n2 as f64);
    out.set("reorder.blocks", s.num_blocks as f64);
    out.set("core.query_us", verdicts.query_us);
    out.set("core.topk_us", verdicts.topk_us);
    out.set("core.residual_max", verdicts.residual_max);
    out.set("cli.preprocess_s", stats::median(&set_up.preprocess_s));
    out.set("cli.ready_ms", stats::median(&set_up.ready_ms));

    let queries = delta("bepi_cache_hits_total") + delta("bepi_cache_misses_total");
    out.set(
        "server.cache_hit_share",
        delta("bepi_cache_hits_total") / queries.max(1.0),
    );
    let asked = (window_sorted.len() + seen.traced_ms.len()).max(1) as f64;
    out.set("server.shed_share", delta("bepi_rejected_total") / asked);
    out.set(
        "server.degraded_share",
        delta("bepi_degraded_total") / asked,
    );
    seen.report_layers(cfg, &mut out);

    if live {
        let of_kind = |kind: Option<BatchKind>| -> f64 {
            let v: Vec<f64> = writes
                .visible
                .iter()
                .filter(|(k, _)| kind.is_none_or(|kind| *k == kind))
                .map(|(_, v)| *v)
                .collect();
            stats::median(&v)
        };
        out.set("live.update_visible_p50_ms", of_kind(None));
        out.set("live.visible_numeric_ms", of_kind(Some(BatchKind::Numeric)));
        out.set(
            "live.visible_structural_ms",
            of_kind(Some(BatchKind::Structural)),
        );
        out.set("live.ack_p50_ms", stats::median(&seen.acks_ms));
        out.set(
            "live.numeric_rebuilds",
            delta("bepi_numeric_rebuilds_total"),
        );
        out.set(
            "live.structural_rebuilds",
            delta("bepi_structural_rebuilds_total"),
        );
        out.set("live.lost_updates", writes.lost_updates);
        out.set("live.swap_stall_ms", swap_stall_ms(&seen.timeline));
        out.set("core.refactor_s", stats::median(&oracle.refactor_s));
        out.set("incr.classify_us", stats::median(&oracle.classify_us));
        out.set("live.wal_append_us", oracle::wal_append_us(oracle, work)?);
    }
    Ok(out)
}

/// Everything the run feeds the daemon, all of it from `--seed`.
struct Inputs {
    oracle: Oracle,
    /// 6 : 3 : 1 seeds: the popular head first, fresh seeds behind it.
    seed_pool: Vec<usize>,
    head: usize,
    /// The seed source as the open-loop plan left it; the closed loop
    /// carries on from here.
    seeds: SeedSource,
    /// The open loop: `(due offset, operation)`, ascending.
    plan: Vec<(Duration, Op)>,
    /// Due offset of every edge batch of the oracle's chain.
    write_due: Vec<Duration>,
    /// How many of them the open loop sends (the closed loop the rest).
    scheduled_writes: usize,
}

impl Inputs {
    fn generate(
        cfg: &RunConfig,
        shape: &Shape,
        set_up: &SetUp,
        work: &Path,
    ) -> Result<Self, String> {
        let e = |err: bepi_sparse::SparseError| err.to_string();
        // The oracle reads a copy: a live daemon checkpoints over its index.
        let oracle_path = work.join("oracle.bepi");
        std::fs::copy(&set_up.index_path, &oracle_path).map_err(|e| e.to_string())?;
        let (index, embedded) = load_mapped_file(&oracle_path).map_err(e)?;
        let raw_graph = match embedded {
            Some(g) => g,
            None => Graph::from_adjacency(
                bepi_sparse::io::read_edge_list_file(&set_up.edges, None)
                    .map_err(e)?
                    .to_csr(),
            )
            .map_err(e)?,
        };
        let classes = SeedClasses::of(&index);

        let head = shape.head.min(raw_graph.n());
        let fresh = if shape.fresh_share > 0.0 {
            FRESH_POOL
        } else {
            0
        };
        let seed_pool = classes.draw_631(
            &mut Rng::new(cfg.seed, stream::SEEDS),
            (head + fresh).min(raw_graph.n()),
        );
        let mut seeds = SeedSource {
            head: (head > 0).then(|| Zipf::new(head, 1.0)),
            fresh_share: shape.fresh_share,
            rng: Rng::new(cfg.seed, stream::POPULARITY),
            cursor: head,
        };

        let warm_up = cfg.warm_up();
        let window = cfg.window();
        // A traced run's schedule holds an untraced reference window, then
        // the traced one.
        let scheduled = warm_up + window * if cfg.traced { 2 } else { 1 };
        let total = scheduled + cfg.sat_window();
        let oracle =
            oracle::build_oracle(cfg, index, raw_graph, &classes, shape.write_interval, total)?;

        let arrivals = poisson_arrivals(
            &mut Rng::new(cfg.seed, stream::ARRIVALS),
            shape.rate,
            scheduled,
        );
        let mut plan: Vec<(Duration, Op)> = arrivals
            .into_iter()
            .map(|at| {
                let traced = cfg.traced && at >= warm_up + window;
                (
                    at,
                    Op::Query {
                        seed: seeds.next(&seed_pool),
                        traced,
                    },
                )
            })
            .collect();
        // Writes start with the measured window and keep their period
        // through the closed-loop phase.
        let interval = shape.write_interval.unwrap_or(0.0);
        let write_due: Vec<Duration> = (0..oracle.batches.len())
            .map(|k| warm_up + Duration::from_secs_f64(k as f64 * interval))
            .collect();
        let scheduled_writes = write_due.iter().take_while(|&&at| at < scheduled).count();
        plan.extend((0..scheduled_writes).map(|k| (write_due[k], Op::Edges { batch: k })));
        plan.sort_by_key(|(at, _)| *at);
        Ok(Inputs {
            oracle,
            seed_pool,
            head,
            seeds,
            plan,
            write_due,
            scheduled_writes,
        })
    }
}

/// Replays `hot` once over `nproc` kept-alive connections.
fn prewarm(addr: SocketAddr, hot: &[usize]) -> Result<(), String> {
    let next = AtomicUsize::new(0);
    let conns = open_conns(addr)?;
    std::thread::scope(|scope| {
        for conn in &conns {
            scope.spawn(|| {
                let mut conn = conn.lock().expect("a pre-warm thread panicked");
                while let Some(&seed) = hot.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let _ = conn.get(&query_path(seed, false));
                }
            });
        }
    });
    Ok(())
}

/// The `sat_qps` phase: `nproc` kept-alive connections, each caller
/// sending its next request when the last one is answered; caller 0 also
/// posts the edge batches that fall due. Returns the replies (one group
/// per iteration), the phase's wall time, and how many batches have been
/// posted by the end of the run.
fn closed_loop(
    cfg: &RunConfig,
    addr: SocketAddr,
    origin: Instant,
    inputs: &Inputs,
    seeds: &mut SeedSource,
) -> Result<(Vec<Vec<Reply>>, Duration, usize), String> {
    let seeds = Mutex::new(seeds);
    let conns = open_conns(addr)?;
    let next_write = AtomicUsize::new(inputs.scheduled_writes);
    let (replies, elapsed) =
        openloop::run_closed_loop(openloop::nproc(), cfg.sat_window(), |caller, _| {
            let mut group = Vec::new();
            if caller == 0 {
                let k = next_write.load(Ordering::Relaxed);
                if inputs
                    .write_due
                    .get(k)
                    .is_some_and(|&at| origin.elapsed() >= at)
                {
                    next_write.store(k + 1, Ordering::Relaxed);
                    group.push(execute(addr, Op::Edges { batch: k }, &inputs.oracle));
                }
            }
            let seed = seeds
                .lock()
                .expect("a load thread panicked")
                .next(&inputs.seed_pool);
            let sent_at = Instant::now();
            let mut conn = conns[caller].lock().expect("a load thread panicked");
            let response = conn.get(&query_path(seed, false));
            if response.is_err() {
                // A dropped keep-alive connection is replaced, and the
                // request still counts as failed.
                if let Ok(fresh) = Conn::open(addr) {
                    *conn = fresh;
                }
            }
            group.push(Reply {
                op: Op::Query {
                    seed,
                    traced: false,
                },
                sent_at,
                done_at: Instant::now(),
                response,
            });
            group
        })?;
    Ok((replies, elapsed, next_write.load(Ordering::Relaxed)))
}

/// One traced request: the program's `?trace=1` stages (queue, solve,
/// top-k, serialise, total) and the client's round trip, all in µs.
struct TraceRow {
    stages_us: [u64; 5],
    round_trip_us: f64,
}

/// What the client saw, sorted into what each metric needs.
#[derive(Default)]
struct Seen {
    /// Latency from the due instant, untraced and traced window; these
    /// and `lateness_us` are ascending once collected.
    window_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    lateness_us: Vec<f64>,
    /// Every accepted answer: warm-up, windows, closed loop, extras.
    answers: Vec<Answer>,
    /// Indices into `answers` of the windows' and the closed loop's.
    window_answers: Vec<usize>,
    sat_range: std::ops::Range<usize>,
    /// When each closed-loop answer arrived, in `sat_range`'s order.
    sat_done: Vec<Instant>,
    acks_ms: Vec<f64>,
    /// When each edge batch was sent.
    write_sent: BTreeMap<usize, Instant>,
    /// `(sent, done, version)` of every timed answer.
    timeline: Vec<(Instant, Instant, u64)>,
    trace_rows: Vec<TraceRow>,
}

impl Seen {
    fn collect(
        cfg: &RunConfig,
        tracer: Tracer,
        outcomes: Vec<Outcome<Reply>>,
        sat_replies: Vec<Vec<Reply>>,
        extra: Vec<Reply>,
        out: &mut RunOutput,
    ) -> Seen {
        let mut seen = Seen::default();
        let warm_up = cfg.warm_up();
        for Outcome {
            index,
            due,
            sent,
            done,
            result: reply,
        } in outcomes
        {
            match reply.op {
                Op::Edges { batch } => seen.note_write(batch, &reply, out),
                // Warm-up answers are checked but not timed or counted.
                Op::Query { seed, .. } if due < warm_up => {
                    seen.answers.extend(accept(&reply, seed, None));
                }
                Op::Query { seed, traced } => {
                    out.attempted += 1;
                    seen.lateness_us.push(us(sent.saturating_sub(due)));
                    let answer = accept(&reply, seed, Some(out));
                    // A failed, shed or degraded answer misses every limit.
                    let latency = match answer {
                        Some(_) => ms(done.saturating_sub(due)),
                        None => f64::INFINITY,
                    };
                    if traced {
                        seen.traced_ms.push(latency);
                    } else {
                        seen.window_ms.push(latency);
                    }
                    let Some(a) = answer else { continue };
                    seen.timeline
                        .push((reply.sent_at, reply.done_at, a.version));
                    if let (true, Some(t)) = (traced, a.body.trace_us) {
                        seen.trace_rows.push(TraceRow {
                            stages_us: t,
                            round_trip_us: us(reply.done_at - reply.sent_at),
                        });
                        if let Some(rec) = tracer {
                            book_spans(rec, &reply, index as u64, t);
                        }
                    }
                    seen.window_answers.push(seen.answers.len());
                    seen.answers.push(a);
                }
            }
        }
        seen.sat_range.start = seen.answers.len();
        for reply in sat_replies.into_iter().flatten() {
            match reply.op {
                Op::Edges { batch } => seen.note_write(batch, &reply, out),
                Op::Query { seed, .. } => {
                    out.attempted += 1;
                    if let Some(a) = accept(&reply, seed, Some(out)) {
                        seen.timeline
                            .push((reply.sent_at, reply.done_at, a.version));
                        seen.sat_done.push(reply.done_at);
                        seen.answers.push(a);
                    }
                }
            }
        }
        seen.sat_range.end = seen.answers.len();
        for reply in &extra {
            if let Op::Query { seed, .. } = reply.op {
                out.attempted += 1;
                seen.answers.extend(accept(reply, seed, Some(out)));
            }
        }
        for samples in [
            &mut seen.window_ms,
            &mut seen.traced_ms,
            &mut seen.lateness_us,
        ] {
            samples.sort_by(f64::total_cmp);
        }
        seen
    }

    fn note_write(&mut self, batch: usize, reply: &Reply, out: &mut RunOutput) {
        self.write_sent.insert(batch, reply.sent_at);
        out.attempted += 1;
        match &reply.response {
            Ok(r) if r.status == 200 => self.acks_ms.push(ms(reply.done_at - reply.sent_at)),
            Ok(r) => {
                out.failed += 1;
                out.problem(format!("POST /edges answered {}: {}", r.status, r.body));
            }
            Err(why) => {
                out.failed += 1;
                out.problem(format!("POST /edges: {why}"));
            }
        }
    }

    /// The per-layer metrics that come straight from the client's view.
    fn report_layers(&self, cfg: &RunConfig, out: &mut RunOutput) {
        let window_sorted = &self.window_ms;
        let of_window = |f: fn(&Answer) -> f64| -> Vec<f64> {
            self.window_answers
                .iter()
                .map(|&i| f(&self.answers[i]))
                .collect()
        };
        // Iterations over the open loop's answers only: that seed list is
        // fixed by --seed, so the count repeats exactly.
        out.set(
            "solver.gmres_iters",
            stats::mean(&of_window(|a| a.body.iterations as f64)),
        );
        out.set(
            "server.resp_bytes",
            stats::mean(&of_window(|a| a.bytes as f64)),
        );
        let column = |f: fn(&TraceRow) -> f64| {
            stats::mean(&self.trace_rows.iter().map(f).collect::<Vec<_>>())
        };
        out.set("server.queue_us", column(|r| r.stages_us[0] as f64));
        out.set("server.solve_us", column(|r| r.stages_us[1] as f64));
        out.set("server.topk_us", column(|r| r.stages_us[2] as f64));
        out.set("server.serialize_us", column(|r| r.stages_us[3] as f64));
        out.set(
            "server.io_us",
            column(|r| r.round_trip_us - r.stages_us[4] as f64),
        );
        out.set(
            "server.trace_overhead_share",
            if self.traced_ms.is_empty() {
                0.0
            } else {
                stats::percentile(&self.traced_ms, 0.5) / stats::percentile(window_sorted, 0.5)
                    - 1.0
            },
        );
        // Tails are reported, not gated: above the median, run-to-run
        // spread on a two-core host is wider than any bound the contract
        // allows (README).
        let p95 = stats::tail_percentile(window_sorted, 0.95).unwrap_or_else(|why| {
            // A smoke window is too short for the ten-beyond rule and says
            // so in its stamp; anywhere else a short window fails the run.
            if !cfg.smoke {
                out.problem(why);
            }
            stats::percentile(window_sorted, 0.95)
        });
        out.set("bench.query_p95_ms", p95);
        out.set(
            "server.query_p99_ms",
            stats::percentile(window_sorted, 0.99),
        );
        out.set(
            "bench.gen_late_p95_us",
            stats::percentile(&self.lateness_us, 0.95),
        );
        out.set("bench.samples", window_sorted.len() as f64);
        out.set("bench.host_triad_gbps", crate::workload::host_triad_gbps());
    }
}

/// What the write schedule came to.
#[derive(Default)]
struct Writes {
    lost_updates: f64,
    /// Update -> visible, per open-loop batch, with the batch's kind.
    visible: Vec<(BatchKind, f64)>,
}

/// The write schedule's invariants are part of the workload's validity:
/// each batch one rebuild of the scheduled kind, every acknowledged batch
/// served in the end, the final answers those of a from-scratch index.
fn judge_writes(
    inputs: &Inputs,
    seen: &Seen,
    posted: usize,
    served_version: u64,
    rebuilds: (f64, f64),
    scratch_mismatches: usize,
    out: &mut RunOutput,
) -> Writes {
    let mut writes = Writes::default();
    let batches = &inputs.oracle.batches;
    let numeric = batches[..posted]
        .iter()
        .filter(|(k, _)| *k == BatchKind::Numeric)
        .count() as f64;
    let scheduled = (numeric, posted as f64 - numeric);
    if rebuilds != scheduled {
        out.problem(format!(
            "rebuilds numeric/structural {rebuilds:?} differ from the schedule's {scheduled:?}"
        ));
    }
    let final_version = 1 + posted as u64;
    if served_version < final_version {
        writes.lost_updates = ((final_version - served_version) as usize * BATCH_EDGES) as f64;
        out.problem(format!(
            "version {served_version} served after {posted} acknowledged batches"
        ));
    }
    if scratch_mismatches > 0 {
        writes.lost_updates = (posted * BATCH_EDGES) as f64;
        out.wrong += scratch_mismatches as u64;
        out.problem(format!(
            "{scratch_mismatches} final answers differ from a from-scratch index of the updated graph"
        ));
    }
    // Update -> visible: POST sent to the first answer whose version covers
    // the batch, over the scheduled (open-loop) batches only.
    for (&batch, &sent_at) in seen.write_sent.range(..inputs.scheduled_writes) {
        let target = batch as u64 + 2;
        let first = seen
            .timeline
            .iter()
            .filter(|(_, _, v)| *v >= target)
            .map(|(_, done, _)| *done)
            .min();
        match first {
            Some(done) => writes.visible.push((batches[batch].0, ms(done - sent_at))),
            None => out.problem(format!("batch {batch} was never seen served")),
        }
    }
    writes
}

/// The daemon of the last set-up, with what the set-ups measured.
struct SetUp {
    daemon: Daemon,
    /// The first `/query` answer of the last set-up.
    first: Result<Response, String>,
    edges: PathBuf,
    index_path: PathBuf,
    /// Seconds from raw edge list to first answer, one per set-up.
    setups: Vec<f64>,
    preprocess_s: Vec<f64>,
    /// Spawn -> `/healthz` 200 (traced runs only).
    ready_ms: Vec<f64>,
}

/// Writes the graph as an edge list, the way a user would hold it, then
/// goes from that file to a first answer over HTTP `SETUP_REPEATS` times:
/// `bepi preprocess`, `bepi serve`, one `/query`.
fn set_up(
    cfg: &RunConfig,
    shape: &Shape,
    work: &Path,
    out: &mut RunOutput,
) -> Result<SetUp, String> {
    let (spec, graph) = cfg.generate_graph();
    let edges = work.join("edges.txt");
    let index_path = work.join("index.bepi");
    let wal_path = work.join("updates.wal");
    bepi_sparse::io::write_edge_list(
        std::fs::File::create(&edges).map_err(|e| e.to_string())?,
        graph.adjacency(),
    )
    .map_err(|e| e.to_string())?;
    drop(graph);

    let mut preprocess_flags: Vec<String> = ["--format", "v6", "--k"].map(String::from).into();
    preprocess_flags.push(spec.hub_ratio.to_string());
    let serve_flags: Vec<String> = if shape.write_interval.is_some() {
        preprocess_flags.push("--embed-graph".into());
        vec![
            "--wal".into(),
            wal_path.display().to_string(),
            "--auto-flush".into(),
            BATCH_EDGES.to_string(),
        ]
    } else {
        vec!["--mmap".into()]
    };
    out.daemon_flags = serve_flags.clone();

    let mut setups = Vec::new();
    let mut preprocess_s = Vec::new();
    let mut ready_ms = Vec::new();
    let mut served = None;
    for _ in 0..SETUP_REPEATS {
        // Stops the previous set-up's daemon before its files are replaced.
        drop(served.take());
        let _ = std::fs::remove_file(&wal_path);
        let start = Instant::now();
        let preprocess = daemon::preprocess(&edges, &index_path, &preprocess_flags)?;
        preprocess_s.push(preprocess.as_secs_f64());
        let daemon = Daemon::spawn(&index_path, &serve_flags)?;
        if cfg.traced {
            let health = http::get(daemon.addr, "/healthz")?;
            if health.status != 200 {
                return Err(format!("/healthz answered {}", health.status));
            }
            ready_ms.push(ms(start.elapsed() - preprocess));
        }
        let first = http::get(daemon.addr, &query_path(0, false));
        setups.push(start.elapsed().as_secs_f64());
        served = Some((daemon, first));
    }
    let (daemon, first) = served.expect("SETUP_REPEATS > 0");
    Ok(SetUp {
        daemon,
        first,
        edges,
        index_path,
        setups,
        preprocess_s,
        ready_ms,
    })
}

fn query_path(seed: usize, traced: bool) -> String {
    // `mode=exact`: under pressure the daemon must shed (a counted
    // failure), not quietly hand back an approximate answer.
    format!(
        "/query?seed={seed}&top={TOP_K}&mode=exact{}",
        if traced { "&trace=1" } else { "" }
    )
}

fn open_conns(addr: SocketAddr) -> Result<Vec<Mutex<Conn>>, String> {
    (0..openloop::nproc())
        .map(|_| Conn::open(addr).map(Mutex::new))
        .collect()
}

fn served_version(addr: SocketAddr) -> Result<u64, String> {
    let metrics = http::get(addr, "/metrics")?.body;
    Ok(http::metric(&metrics, "bepi_graph_version").unwrap_or(0.0) as u64)
}

/// Sends one operation on a connection of its own.
fn execute(addr: SocketAddr, op: Op, oracle: &Oracle) -> Reply {
    let sent_at = Instant::now();
    let response = match op {
        Op::Query { seed, traced } => http::get(addr, &query_path(seed, traced)),
        Op::Edges { batch } => {
            let mut body = String::new();
            for update in &oracle.batches[batch].1 {
                let (op, u, v) = match *update {
                    EdgeUpdate::Insert(u, v) => ("insert", u, v),
                    EdgeUpdate::Remove(u, v) => ("remove", u, v),
                };
                body.push_str(&format!("{{\"op\":\"{op}\",\"u\":{u},\"v\":{v}}}\n"));
            }
            http::request(addr, "POST", "/edges", &body)
        }
    };
    Reply {
        op,
        sent_at,
        done_at: Instant::now(),
        response,
    }
}

/// A `/query` reply as an answer to verify, or a counted failure.
fn accept(reply: &Reply, seed: usize, out: Option<&mut RunOutput>) -> Option<Answer> {
    match read_answer(reply, seed) {
        Ok(answer) => Some(answer),
        Err(why) => {
            if let Some(out) = out {
                out.failed += 1;
                out.problem(format!("seed {seed}: {why}"));
            }
            None
        }
    }
}

fn read_answer(reply: &Reply, seed: usize) -> Result<Answer, String> {
    let r = reply.response.as_ref().map_err(|e| e.clone())?;
    if r.status != 200 {
        return Err(format!("status {}: {}", r.status, r.body));
    }
    if r.header("X-Approx").is_some() {
        return Err("degraded answer where an exact one was asked".into());
    }
    let version = r
        .header("X-Graph-Version")
        .and_then(|v| v.parse().ok())
        .ok_or("no X-Graph-Version")?;
    Ok(Answer {
        seed,
        version,
        body: http::parse_query_body(&r.body)?,
        bytes: r.body.len(),
    })
}

/// The request's round trip as a span, with the program's `?trace=1`
/// stages laid end to end inside it (centred: the client cannot know
/// where in the round trip the server's clock started).
fn book_spans(rec: &crate::spans::Recorder, reply: &Reply, request: u64, t: [u64; 5]) {
    let (start, end) = (rec.at_ns(reply.sent_at), rec.at_ns(reply.done_at));
    let root = rec.record("http.request", start, end, None, request, Source::Bench);
    let total_ns = t[4] * 1_000;
    let mut cursor = start + (end - start).saturating_sub(total_ns) / 2;
    for (name, us) in [
        ("server.queue", t[0]),
        ("server.solve", t[1]),
        ("server.topk", t[2]),
        ("server.serialize", t[3]),
    ] {
        rec.record(
            name,
            cursor,
            cursor + us * 1_000,
            Some(root),
            request,
            Source::Program,
        );
        cursor += us * 1_000;
    }
}

/// p95 latency of the answers in flight across a version change, minus
/// the p95 of the rest: what a hot-swap costs the readers it overlaps.
fn swap_stall_ms(timeline: &[(Instant, Instant, u64)]) -> f64 {
    let mut first_seen: BTreeMap<u64, Instant> = BTreeMap::new();
    for &(_, done, version) in timeline {
        let at = first_seen.entry(version).or_insert(done);
        *at = (*at).min(done);
    }
    let swaps: Vec<Instant> = first_seen.into_iter().skip(1).map(|(_, at)| at).collect();
    let (mut across, mut rest) = (Vec::new(), Vec::new());
    for &(sent, done, _) in timeline {
        let latency = ms(done - sent);
        if swaps.iter().any(|&at| sent <= at && at <= done) {
            across.push(latency);
        } else {
            rest.push(latency);
        }
    }
    if across.is_empty() || rest.is_empty() {
        return 0.0;
    }
    stats::percentile(&stats::sorted(across), 0.95) - stats::percentile(&stats::sorted(rest), 0.95)
}

/// Probes that need the running daemon: the cost of HTTP over the bare
/// solve, of a cache hit, and of opening the index file.
fn daemon_probes(
    cfg: &RunConfig,
    addr: SocketAddr,
    index: &BePi,
    seed_pool: &[usize],
    work: &Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let e = |err: bepi_sparse::SparseError| err.to_string();
    let mut probes = BTreeMap::new();
    // Seeds from the far end of the pool: on a cold workload the schedule
    // has not reached them, so each first request is a miss.
    let seeds: Vec<usize> = seed_pool.iter().rev().take(40).copied().collect();
    match cfg.workload {
        Workload::ServeCold => {
            let mut client = Vec::new();
            let mut inproc = Vec::new();
            for &seed in &seeds {
                let t = Instant::now();
                let r = http::get(addr, &query_path(seed, false))?;
                client.push(us(t.elapsed()));
                if r.status != 200 {
                    return Err(format!("probe query answered {}", r.status));
                }
                let t = Instant::now();
                let answer = index.query_with_stats(seed).map_err(e)?;
                std::hint::black_box(answer.top_k(TOP_K));
                inproc.push(us(t.elapsed()));
            }
            probes.insert(
                "server.http_overhead_us",
                stats::median(&client) - stats::median(&inproc),
            );
            let copy = work.join("saved.bepi");
            let t = Instant::now();
            save_file_v6(index, None, &copy).map_err(e)?;
            probes.insert("core.save_v6_s", t.elapsed().as_secs_f64());
            let t = Instant::now();
            let (mapped, _) = load_mapped_file(&copy).map_err(e)?;
            probes.insert("mapidx.open_us", us(t.elapsed()));
            let t = Instant::now();
            std::hint::black_box(mapped.query_with_stats(seeds[0]).map_err(e)?);
            probes.insert("mapidx.first_query_us", us(t.elapsed()));
        }
        Workload::ServeHot => {
            let mut hits = Vec::new();
            for &seed in &seeds {
                http::get(addr, &query_path(seed, false))?;
                let t = Instant::now();
                let r = http::get(addr, &query_path(seed, false))?;
                if r.header("X-Cache") == Some("hit") {
                    hits.push(us(t.elapsed()));
                }
            }
            if hits.is_empty() {
                return Err("an immediately repeated seed never hit the cache".into());
            }
            probes.insert("server.hit_us", stats::median(&hits));
        }
        _ => {}
    }
    Ok(probes)
}
