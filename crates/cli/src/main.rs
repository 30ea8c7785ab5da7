//! `bepi` — command-line RWR queries over edge-list graphs.
//!
//! Run `bepi help` for the full usage text (the [`USAGE`] constant is the
//! single source of truth for every subcommand and flag). The edge list
//! is whitespace-separated `src dst [weight]` per line, `#`/`%` comments
//! allowed.

use bepi_core::community::sweep_cut;
use bepi_core::prelude::*;
use bepi_core::schur::select_hub_ratio;
use bepi_graph::io::read_labeled_edge_list_file;
use bepi_graph::{Graph, NodeIndexer};
use bepi_live::{LiveConfig, LiveEngine};
use bepi_server::{Server, ServerConfig};
use bepi_sparse::io::read_edge_list_file;
use bepi_sparse::mem::format_bytes;
use std::error::Error;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// How `bepi query` computes its scores: the exact BePI solve or TPA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryMethod {
    /// Exact: BePI preprocessing + Schur/GMRES solve (default).
    Bepi,
    /// Truncated cumulative power iteration (`bepi_walk::tpa_scores`),
    /// the engine behind the daemon's approximate lane.
    Tpa,
}

/// Every flag's value: its default until the command line sets it.
struct Options {
    /// The solver flags (`--c`, `--tol`, `--k`, `--variant`).
    config: BePiConfig,
    top: usize,
    max_size: Option<usize>,
    labels: bool,
    embed_graph: bool,
    mmap: bool,
    method: QueryMethod,
    /// `query --method tpa`: `--terms`.
    tpa: bepi_walk::ApproxConfig,
    /// `serve --listen`: the daemon's settings, the address included.
    server: ServerConfig,
    /// `serve --listen`: the live-update settings.
    live: LiveConfig,
    graph: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            config: BePiConfig::default(),
            top: 10,
            max_size: None,
            labels: false,
            embed_graph: false,
            mmap: false,
            method: QueryMethod::Bepi,
            tpa: bepi_walk::ApproxConfig::default(),
            server: ServerConfig::default(),
            live: LiveConfig::default(),
            graph: None,
        }
    }
}

/// What a subcommand returns. Its error is a runtime error (load, IO,
/// solver), printed alone; an argument error is [`parse`]'s `String`,
/// printed with the usage text.
type Outcome<T = ()> = Result<T, Box<dyn Error>>;

fn main() -> ExitCode {
    // BEPI_LOG seeds the level; a --log-level flag overrides it.
    bepi_obs::init_from_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Err(usage) => eprintln!("error: {usage}\n\n{USAGE}"),
        Ok((sub, args, opts)) => match (sub.run)(&args, &opts) {
            Ok(()) => return ExitCode::SUCCESS,
            Err(runtime) => eprintln!("error: {runtime}"),
        },
    }
    ExitCode::FAILURE
}

/// The one usage text: printed by `bepi help` / `--help` and after every
/// argument error, so flag documentation cannot drift between the two.
const USAGE: &str = "usage:
  bepi query      <edges.txt> <seed> [--top K] [--method M] [--terms N]
                  [--labels] [solver flags]
  bepi ppr        <edges.txt> <seed:weight> [<seed:weight> ...] [--top K]
                  [--labels] [solver flags]
  bepi community  <edges.txt> <seed> [--max-size N] [--labels] [solver flags]
  bepi stats      <edges.txt|index.bepi> [--mmap] [--labels] [solver flags]
  bepi select-k   <edges.txt> [--c C] [--labels]
  bepi preprocess <edges.txt> <out.bepi> [--embed-graph] [--format v6] [solver flags]
                  (writes a v6 index atomically: temp file, fsync, rename)
  bepi serve      <index.bepi> <seed> [--top K] [--mmap] (one-shot query)
  bepi serve      <index.bepi> --listen ADDR [--mmap] [--threads N]
                  [--cache-entries M]
                  [--queue-depth Q] [--timeout-ms T] [--slow-query-ms S]
                  [--pressure F] [--trace-export PATH]
                  [--wal PATH] [--auto-flush N] [--graph edges.txt]
                  [--checkpoint PATH]
                  (HTTP daemon)
  bepi help       (aliases: --help, -h)
solver flags are --c, --tol, --k and --variant; every subcommand also takes
--log-level. A flag the subcommand's line does not name is an error.

flags:
  --log-level L    stderr log verbosity: error|warn|info|debug|trace
                   (default warn; BEPI_LOG env var sets the same thing)
  --c C            restart probability (default 0.05)
  --tol EPS        solver tolerance (default 1e-9)
  --k RATIO        SlashBurn hub ratio (default 0.2 for --variant sparse
                   and full, 0.001 for --variant basic)
  --variant V      sparse | full | basic (default sparse)
  --top K          ranking rows to print (default 10)
  --method M       query: scoring engine — bepi (exact, default) or tpa
                   (truncated cumulative power iteration, the deterministic
                   approximate engine the daemon's degraded lane serves)
  --terms N        query --method tpa: max series terms (default 4)
  --max-size N     community: cap the sweep-cut size
  --labels         treat node ids as arbitrary strings instead of 0-indexed
                   integers. Only for commands that read an edge list;
                   preprocess and serve require integer ids because the
                   label mapping is not stored in the .bepi index.
  --embed-graph    preprocess: also store the adjacency inside the index,
                   making it live-update capable when served
  --format v6      preprocess: the index format; v6 (the memory-mappable
                   section container, ILU factors included) is the only
                   one, so the flag is optional. Indexes written in older
                   formats are rejected: re-run preprocess to rebuild them
  --mmap           serve/stats: open the index as a shared read-only memory
                   map and serve zero-copy from the page cache (instant
                   startup, index pages shared across processes); without
                   it the index is loaded onto the heap

serve daemon flags (with --listen):
  --listen ADDR    bind address, e.g. 127.0.0.1:7462 (port 0 picks an
                   ephemeral port; the bound address is printed on startup)
  --threads N      worker threads (default: available parallelism)
  --cache-entries M  response-cache capacity in entries (default 4096;
                   0 disables caching)
  --queue-depth Q  admission-queue depth; connections beyond it are shed
                   with 503 + Retry-After (default 128)
  --timeout-ms T   per-request deadline in milliseconds, including queue
                   wait (default 10000)
  --slow-query-ms S  queries at or above S milliseconds end-to-end are kept
                   in the slow-query ring served by GET /debug/slow
                   (default 100; 0 records every query)
  --pressure F     fraction of the admission queue at which mode=auto
                   queries start getting approximate answers instead of
                   queueing for the exact solver (default 0.75; 0 serves
                   every auto query approximately, useful for drills).
                   Approximate answers need the graph (embedded or
                   --graph); without one, approx/auto degrade paths 400/shed
  --wal PATH       durable write-ahead log of live edge updates: every
                   accepted POST /edges batch is fsynced here and replayed
                   on restart (torn tails from a crash are tolerated)
  --auto-flush N   rebuild the index in the background once N updates are
                   buffered (default 0 = only POST /rebuild flushes)
  --graph PATH     edge list matching the index, for live updates when the
                   index was saved without --embed-graph
  --checkpoint P   where to write the post-rebuild index (default: the
                   index path itself when --wal is set); applied WAL
                   segments are truncated once the checkpoint is durable
  --trace-export PATH  append every traced (?trace=1) query as Chrome
                   trace-event JSON to PATH (open it in Perfetto or
                   chrome://tracing); preprocessing phase timings are
                   exported once at startup

daemon endpoints: GET /query?seed=S&top=K[&mode=M][&trace=1]
                  GET /healthz   GET /metrics   GET /version
                  GET /debug/slow   GET /debug/trace
                  POST /edges   POST /rebuild
approximate serving: ?mode= is exact, approx, or auto (default auto):
auto answers exactly until the admission queue crosses the --pressure
threshold, then serves deterministic approximate scores (tagged
X-Approx: 1) instead of shedding 503 — including on the overflow lane
once the queue is full; mode=exact keeps strict answers and sheds under
overload; responses are cached per (seed, top, version, exact|approx)
and byte-identical across repeats.
observability: every request gets a 128-bit correlation id, minted by
the daemon (or adopted from a valid X-Request-Id header), echoed on the
response, and stamped into structured logs, the slowlog, and trace
exports; /query?trace=1 embeds a per-stage timing breakdown (queue
wait, solve, top-k, serialize) in the response; traced requests are
retained in the /debug/trace ring and, with --trace-export, appended as
Chrome trace-event JSON; /metrics exposes GMRES iteration histograms,
per-phase preprocessing timings, WAL fsync latency, approx/degraded
counters, and queue-depth/in-flight gauges; /debug/slow returns the
latest slow queries as JSON (approx-flagged, request-id-correlated).
several daemons can serve one index: start each with
`bepi serve <index> --listen ADDR --mmap` and they share its pages
through the page cache, each with its own response cache.
live updates: POST /edges takes JSON lines {\"op\":\"insert\",\"u\":0,\"v\":5};
queries keep serving the last completed rebuild (check X-Graph-Version)
until a rebuild flushes the buffer.
the daemon shuts down gracefully (draining in-flight queries) on stdin EOF.";

/// One row of the command table: a subcommand with its positional
/// arguments in `<>` (a trailing `...` takes one or more), the flags it
/// reads besides `--log-level`, and what runs it.
struct Subcommand {
    usage: &'static str,
    flags: &'static str,
    run: fn(&[String], &Options) -> Outcome,
}

/// The flags that take no value.
const SWITCHES: [&str; 3] = ["--labels", "--embed-graph", "--mmap"];

/// Every subcommand `bepi` runs. `serve` has two rows: the daemon, picked
/// by `--listen`, and the one-shot query.
const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        usage: "query <edges.txt> <seed>",
        flags: "--top --method --terms --labels --c --tol --k --variant",
        run: |args, o| cmd_query(&args[0], &args[1], o),
    },
    Subcommand {
        usage: "ppr <edges.txt> <seed:weight>...",
        flags: "--top --labels --c --tol --k --variant",
        run: |args, o| cmd_ppr(&args[0], &args[1..], o),
    },
    Subcommand {
        usage: "community <edges.txt> <seed>",
        flags: "--max-size --labels --c --tol --k --variant",
        run: |args, o| cmd_community(&args[0], &args[1], o),
    },
    Subcommand {
        usage: "stats <edges.txt|index.bepi>",
        flags: "--mmap --labels --c --tol --k --variant",
        run: |args, o| cmd_stats(&args[0], o),
    },
    Subcommand {
        usage: "select-k <edges.txt>",
        flags: "--c --labels",
        run: |args, o| cmd_select_k(&args[0], o),
    },
    Subcommand {
        usage: "preprocess <edges.txt> <out.bepi>",
        flags: "--embed-graph --format --c --tol --k --variant",
        run: |args, o| cmd_preprocess(&args[0], &args[1], o),
    },
    Subcommand {
        usage: "serve <index.bepi> --listen ADDR",
        flags: "--listen --mmap --threads --cache-entries --queue-depth --timeout-ms \
                --slow-query-ms --pressure --trace-export --wal --auto-flush --graph --checkpoint",
        run: |args, o| cmd_serve_daemon(&args[0], o),
    },
    Subcommand {
        usage: "serve <index.bepi> <seed>",
        flags: "--top --mmap",
        run: |args, o| cmd_serve(&args[0], &args[1], o),
    },
    Subcommand {
        usage: "help",
        flags: "",
        run: |_, _| {
            // Tolerate a closed pipe (`bepi help | head`): ignore the
            // write error instead of panicking like `println!` would.
            use std::io::Write as _;
            let _ = writeln!(std::io::stdout(), "{USAGE}");
            Ok(())
        },
    },
];

impl Subcommand {
    fn name(&self) -> &str {
        self.usage.split(' ').next().unwrap_or_default()
    }

    fn reads(&self, flag: &str) -> bool {
        self.flags.split_whitespace().any(|f| f == flag)
    }
}

/// The one parser: splits the command line into the subcommand, its
/// positional arguments and its flags (anywhere on the line), checks them
/// against the subcommand's row and sets every flag given. Its errors are
/// argument errors.
fn parse(argv: &[String]) -> Result<(&'static Subcommand, Vec<String>, Options), String> {
    let known = |flag: &str| flag == "--log-level" || SUBCOMMANDS.iter().any(|s| s.reads(flag));
    let (mut words, mut flags) = (Vec::new(), Vec::new());
    let mut tokens = argv.iter();
    while let Some(token) = tokens.next() {
        // `--help` is the help subcommand's alias, not a flag.
        if !token.starts_with("--") || token == "--help" {
            words.push(token.clone());
        } else if SWITCHES.contains(&token.as_str()) || !known(token) {
            flags.push((token.as_str(), ""));
        } else {
            let value = tokens.next().ok_or(format!("flag {token} needs a value"))?;
            flags.push((token.as_str(), value.as_str()));
        }
    }
    let (name, args) = words.split_first().ok_or("missing subcommand")?;
    let name = if name == "--help" || name == "-h" {
        "help"
    } else {
        name
    };
    // `--listen` picks the daemon's row of `serve`.
    let daemon = flags.iter().any(|&(flag, _)| flag == "--listen");
    let mut rows = SUBCOMMANDS.iter().filter(|s| s.name() == name);
    let sub = (rows.clone().find(|s| s.reads("--listen") == daemon))
        .or_else(|| rows.next())
        .ok_or(format!("unknown subcommand: {name}"))?;

    let mut opts = Options::default();
    for (flag, value) in flags {
        if !known(flag) {
            return Err(format!("unknown flag: {flag}"));
        }
        if flag != "--log-level" && !sub.reads(flag) {
            let (usage, takes) = (sub.usage, sub.flags);
            let takes = if takes.is_empty() { "no flags" } else { takes };
            return Err(format!(
                "unknown flag: {flag} for bepi {usage} (it takes {takes})"
            ));
        }
        opts.set(flag, value)?;
    }
    let wanted: Vec<&str> = (sub.usage.split(' ').filter(|w| w.starts_with('<'))).collect();
    if let Some(missing) = wanted.get(args.len()) {
        return Err(format!(
            "missing {} for bepi {}",
            missing.trim_end_matches("..."),
            sub.usage
        ));
    }
    if !wanted.last().is_some_and(|w| w.ends_with("...")) {
        if let Some(extra) = args.get(wanted.len()) {
            return Err(format!(
                "unexpected argument {extra} for bepi {}",
                sub.usage
            ));
        }
    }
    Ok((sub, args.to_vec(), opts))
}

impl Options {
    /// Sets one flag from its command-line value (empty for a switch).
    fn set(&mut self, flag: &str, value: &str) -> Result<(), String> {
        fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
            value.parse().map_err(|_| format!("bad {flag}: {value}"))
        }
        let at_least_one = || match number::<usize>(flag, value)? {
            0 => Err(format!("{flag} must be at least 1")),
            n => Ok(n),
        };
        match flag {
            "--log-level" => bepi_obs::set_level(bepi_obs::Level::parse(value).ok_or(format!(
                "bad --log-level: {value} (try error|warn|info|debug|trace)"
            ))?),
            "--labels" => self.labels = true,
            "--embed-graph" => self.embed_graph = true,
            "--mmap" => self.mmap = true,
            "--c" => self.config.c = number(flag, value)?,
            "--tol" => self.config.tol = number(flag, value)?,
            "--k" => self.config.hub_ratio = Some(number(flag, value)?),
            "--top" => self.top = number(flag, value)?,
            "--max-size" => self.max_size = Some(number(flag, value)?),
            "--format" if value.trim_start_matches('v') != "6" => {
                return Err(format!(
                    "bad --format: {value} (v6 is the only index format)"
                ))
            }
            "--format" => {}
            "--method" => {
                self.method = match value {
                    "bepi" => QueryMethod::Bepi,
                    "tpa" => QueryMethod::Tpa,
                    m => return Err(format!("bad --method: {m} (try bepi|tpa)")),
                }
            }
            "--terms" => self.tpa.max_terms = at_least_one()?,
            "--variant" => {
                self.config.variant = match value {
                    "full" => BePiVariant::Full,
                    "sparse" => BePiVariant::Sparse,
                    "basic" => BePiVariant::Basic,
                    v => return Err(format!("bad --variant: {v}")),
                }
            }
            "--listen" => self.server.listen = value.to_string(),
            "--threads" => self.server.threads = number(flag, value)?,
            "--cache-entries" => self.server.cache_entries = number(flag, value)?,
            "--queue-depth" => self.server.queue_depth = at_least_one()?,
            "--timeout-ms" => self.server.timeout = Duration::from_millis(at_least_one()? as u64),
            "--slow-query-ms" => {
                self.server.slow_query = Duration::from_millis(number(flag, value)?)
            }
            "--pressure" => {
                self.server.pressure = number(flag, value)?;
                if self.server.pressure.is_nan() || self.server.pressure < 0.0 {
                    return Err("--pressure must be a non-negative fraction".into());
                }
            }
            "--trace-export" => self.server.trace_export = Some(value.into()),
            "--wal" => self.live.wal_path = Some(value.into()),
            "--auto-flush" => self.live.auto_flush_threshold = number(flag, value)?,
            "--graph" => self.graph = Some(value.to_string()),
            "--checkpoint" => self.live.checkpoint_path = Some(value.into()),
            f => return Err(format!("unknown flag: {f}")),
        }
        Ok(())
    }
}

/// A loaded graph plus optional label mapping.
struct Loaded {
    graph: Graph,
    indexer: Option<NodeIndexer>,
}

impl Loaded {
    fn node_id(&self, token: &str) -> Result<usize, String> {
        match &self.indexer {
            Some(ix) => ix
                .id(token)
                .ok_or_else(|| format!("unknown node label: {token}")),
            None => token.parse().map_err(|_| format!("bad node id: {token}")),
        }
    }
}

/// A node's label when the ids are labels (`--labels`), else its id.
fn node_name(indexer: Option<&NodeIndexer>, id: usize) -> String {
    match indexer {
        Some(ix) => ix.label(id).unwrap_or("?").to_string(),
        None => id.to_string(),
    }
}

fn load(path: &str, opts: &Options) -> Outcome<Loaded> {
    if opts.labels {
        let (graph, indexer) = read_labeled_edge_list_file(path)?;
        let indexer = Some(indexer);
        Ok(Loaded { graph, indexer })
    } else {
        let graph = read_graph(path, None)?;
        Ok(Loaded {
            graph,
            indexer: None,
        })
    }
}

/// Reads an integer-id edge list, over `n` nodes when given.
fn read_graph(path: &str, n: Option<usize>) -> Outcome<Graph> {
    Ok(Graph::from_adjacency(
        read_edge_list_file(path, n)?.to_csr(),
    )?)
}

fn preprocess(g: &Graph, o: &Options) -> Outcome<BePi> {
    Ok(BePi::preprocess(g, &o.config)?)
}

fn print_ranking(indexer: Option<&NodeIndexer>, scores: &RwrScores, top: usize) {
    println!("{:<16} {:>14} {:>6}", "node", "rwr-score", "rank");
    for (rank, node) in scores.top_k(top).into_iter().enumerate() {
        println!(
            "{:<16} {:>14.6e} {:>6}",
            node_name(indexer, node),
            scores.scores[node],
            rank + 1
        );
    }
}

fn cmd_query(path: &str, seed_s: &str, o: &Options) -> Outcome {
    let loaded = load(path, o)?;
    let seed = loaded.node_id(seed_s)?;
    let (label, r) = match o.method {
        QueryMethod::Bepi => {
            let solver = preprocess(&loaded.graph, o)?;
            let r = solver.query(seed)?;
            (o.config.variant.name().to_string(), r)
        }
        QueryMethod::Tpa => {
            let engine = bepi_walk::ApproxEngine::new(&loaded.graph, o.config.c, o.tpa)?;
            let r = engine.query(seed, 0)?;
            (format!("tpa (max {} terms)", o.tpa.max_terms), r)
        }
    };
    println!(
        "# {} on {} nodes / {} edges, seed {}, {} inner iterations",
        label,
        loaded.graph.n(),
        loaded.graph.m(),
        seed_s,
        r.iterations
    );
    print_ranking(loaded.indexer.as_ref(), &r, o.top);
    Ok(())
}

fn cmd_ppr(path: &str, seed_specs: &[String], o: &Options) -> Outcome {
    let loaded = load(path, o)?;
    let mut q = vec![0.0; loaded.graph.n()];
    for spec in seed_specs {
        let (node_s, weight_s) = spec
            .split_once(':')
            .ok_or_else(|| format!("seed spec must be node:weight, got {spec}"))?;
        let node = loaded.node_id(node_s)?;
        let w = (weight_s.parse::<f64>().ok())
            .filter(|w| w.is_finite() && *w >= 0.0)
            .ok_or_else(|| format!("weight in seed spec {spec} must be a finite number >= 0"))?;
        q[node] += w;
    }
    let total: f64 = q.iter().sum();
    if !(total.is_finite() && total > 0.0) {
        return Err(format!(
            "weights in seed specs {} must sum to a finite positive value, got {total}",
            seed_specs.join(" ")
        )
        .into());
    }
    for v in &mut q {
        *v /= total;
    }
    let solver = preprocess(&loaded.graph, o)?;
    let r = solver.query_vector(&q)?;
    println!(
        "# Personalized PageRank over {} seeds, {} inner iterations",
        seed_specs.len(),
        r.iterations
    );
    print_ranking(loaded.indexer.as_ref(), &r, o.top);
    Ok(())
}

fn cmd_community(path: &str, seed_s: &str, o: &Options) -> Outcome {
    let loaded = load(path, o)?;
    let seed = loaded.node_id(seed_s)?;
    let solver = preprocess(&loaded.graph, o)?;
    let scores = solver.query(seed)?;
    let cut = sweep_cut(&loaded.graph, &scores, o.max_size)?;
    println!(
        "# community of seed {} — {} nodes, conductance {:.4}",
        seed_s,
        cut.nodes.len(),
        cut.conductance
    );
    for node in &cut.nodes {
        println!("{}", node_name(loaded.indexer.as_ref(), *node));
    }
    Ok(())
}

/// True when `path` starts with the 4-byte `.bepi` index magic, so
/// `bepi stats` can accept either an edge list or a saved index.
fn is_index_file(path: &str) -> bool {
    use std::io::Read as _;
    let mut magic = [0u8; 4];
    std::fs::File::open(path)
        .and_then(|mut f| f.read_exact(&mut magic))
        .map(|()| &magic == b"BEPI")
        .unwrap_or(false)
}

/// Best-effort resident-set size of this process. Prefers
/// `/proc/self/smaps_rollup` (kernel-summed Rss) and falls back to
/// `VmRSS` in `/proc/self/status`; `None` off Linux.
fn resident_bytes() -> Option<usize> {
    fn scan(text: &str, key: &str) -> Option<usize> {
        text.lines().find_map(|l| {
            let rest = l.strip_prefix(key)?;
            let kb: usize = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            Some(kb * 1024)
        })
    }
    if let Ok(text) = std::fs::read_to_string("/proc/self/smaps_rollup") {
        if let Some(b) = scan(&text, "Rss:") {
            return Some(b);
        }
    }
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| scan(&t, "VmRSS:"))
}

/// Per-section physical memory of a loaded index: heap bytes vs bytes
/// served zero-copy from the mapped file (the paper's Table 5 "memory
/// usage" axis, split by backing).
fn print_memory_report(solver: &BePi) {
    println!("--- index memory by section ---");
    println!("{:<10} {:>12} {:>12}", "section", "heap", "mapped");
    let report = solver.memory_report();
    let total = report.iter().map(|s| s.bytes).sum();
    let rows = report.iter().map(|s| (s.name, s.bytes));
    for (name, bytes) in rows.chain([("total", total)]) {
        println!(
            "{name:<10} {:>12} {:>12}",
            format_bytes(bytes.heap),
            format_bytes(bytes.mapped)
        );
    }
}

/// The partition's sizes and what the index stores per spoke and per
/// node: the `H11` blocks, how many are 1 × 1 (no factor rows, one `U1⁻¹`
/// value each), the factor rows stored against `n1`, the one permutation
/// map, and `|S|`.
fn print_partition(solver: &BePi) {
    let (h11, s) = (solver.h11_factors(), solver.stats());
    println!("n1 / n2 / n3     {} / {} / {}", s.n1, s.n2, s.n3);
    println!(
        "H11 blocks       {} ({} of them 1x1)",
        s.num_blocks,
        h11.singletons().len()
    );
    println!(
        "factor rows      {} of n1 = {} stored (a 1x1 block keeps one U1^-1 value)",
        h11.l_inv().nrows(),
        s.n1
    );
    println!("|L1^-1|+|U1^-1|  {}", s.h11_inv_nnz);
    println!(
        "perm maps        1 (new_of_old, {} nodes)",
        solver.permutation().len()
    );
    println!("|S|              {}", s.s_nnz);
}

/// The form each stored matrix is held in: narrow or wide pattern; plain
/// values, codes per non-zero (`coded`) or per column (`per-col`); every
/// row (`all`) or only the non-empty ones (`stored/rows`); its non-zeros
/// and its own bytes (row ids, pattern, codes or values). Then the 1 × 1
/// `H11` blocks' `U1⁻¹` values, the larger `H11` blocks' `(start, size)`
/// list and the one value table the coded matrices share.
fn print_stored_forms(solver: &BePi) {
    use bepi_sparse::{CodedValues, MatrixValues, MemBytes};
    println!("--- stored matrices ---");
    println!(
        "{:<10} {:>8} {:>8} {:>13} {:>12} {:>12}",
        "matrix", "pattern", "values", "rows", "nnz", "bytes"
    );
    for (name, m) in solver.stored_matrices() {
        let values = match m.values() {
            MatrixValues::Entries(CodedValues::Plain(_)) => "plain",
            MatrixValues::Entries(CodedValues::Coded { .. }) => "coded",
            MatrixValues::Columns { .. } => "per-col",
        };
        let rows = match m.stored_rows() {
            None => "all".to_string(),
            Some(rows) => format!("{}/{}", rows.len(), m.nrows()),
        };
        println!(
            "{name:<10} {:>8} {values:>8} {rows:>13} {:>12} {:>12}",
            if m.pattern().is_narrow() {
                "narrow"
            } else {
                "wide"
            },
            m.nnz(),
            format_bytes(m.own_bytes().total())
        );
    }
    let h11 = solver.h11_factors();
    let singletons = h11.singletons();
    let form = match singletons {
        CodedValues::Plain(_) => "plain",
        CodedValues::Coded { .. } => "coded",
    };
    println!(
        "{:<10} {:>8} {form:>8} {:>13} {:>12} {:>12}",
        "u1_inv 1x1",
        "-",
        "-",
        singletons.len(),
        format_bytes(singletons.own_bytes().total())
    );
    let larger = h11.larger_blocks();
    println!(
        "larger blocks    {} (start, size) pairs of H11 blocks larger than 1x1 ({})",
        larger.len() / 2,
        format_bytes(larger.mem_bytes())
    );
    match solver.value_table() {
        Some(t) => println!(
            "value table      {} entries ({}, shared by every coded matrix)",
            t.len(),
            format_bytes(t.mem_bytes())
        ),
        None => println!("value table      none (no matrix is coded)"),
    }
}

/// `bepi stats` on a saved index: format, backing, the memory report
/// and the file's sections. The resident estimate is the RSS delta across the load, so
/// a mapped index shows only the pages actually touched — unlike
/// `VmHWM`-style peak counters, which charge every mapped page that was
/// ever resident.
fn cmd_index_stats(path: &str, o: &Options) -> Outcome {
    let rss_before = resident_bytes();
    let (solver, graph) = load_index(path, o.mmap)?;
    let rss_after = resident_bytes();
    println!("index            {path}");
    println!("format           v{}", bepi_core::persist::VERSION_MAPPED);
    println!(
        "backing          {}",
        if o.mmap { "memory-mapped" } else { "heap" }
    );
    println!("nodes            {}", solver.node_count());
    print_partition(&solver);
    println!(
        "embedded graph   {}",
        match &graph {
            Some(g) => format!("yes ({} edges)", g.m()),
            None => "no".into(),
        }
    );
    print_memory_report(&solver);
    print_stored_forms(&solver);
    println!("--- index file sections ---");
    for (name, len) in bepi_core::persist::list_sections(path)? {
        println!("{name:<22} {:>12}", format_bytes(len as usize));
    }
    if let (Some(before), Some(after)) = (rss_before, rss_after) {
        println!(
            "resident (load delta)  {}",
            format_bytes(after.saturating_sub(before))
        );
    }
    Ok(())
}

fn cmd_stats(path: &str, o: &Options) -> Outcome {
    // `stats` takes either an edge list or a saved `.bepi` index,
    // told apart by the index magic.
    if is_index_file(path) {
        return cmd_index_stats(path, o);
    }
    let loaded = load(path, o)?;
    let g = &loaded.graph;
    let stats = bepi_graph::stats::graph_stats(g);
    println!("nodes            {}", stats.n);
    println!("edges            {}", stats.m);
    println!("deadends         {}", stats.deadends);
    println!("max degree       {}", stats.max_degree);
    println!("mean degree      {:.2}", stats.mean_degree);
    if let Some(a) = stats.power_law_alpha {
        println!("power-law alpha  {a:.2}");
    }
    println!("GCC size         {}", stats.gcc_size);
    let start = std::time::Instant::now();
    let solver = preprocess(g, o)?;
    let elapsed = start.elapsed();
    println!("--- BePI preprocessing ({}) ---", o.config.variant.name());
    print_partition(&solver);
    println!("preprocess time  {elapsed:?}");
    println!(
        "preprocessed     {}",
        format_bytes(solver.preprocessed_bytes())
    );
    print_phase_table();
    Ok(())
}

/// Per-phase preprocessing wall times (the breakdown behind the paper's
/// Table 3 preprocessing-time comparison), in pipeline order: the
/// `preprocess.<phase>` spans this process's one preprocess recorded.
fn print_phase_table() {
    const PIPELINE: [&str; 6] = [
        "deadend",
        "slashburn",
        "assemble",
        "block_lu",
        "schur",
        "precond",
    ];
    let spans = bepi_obs::snapshot();
    let phases: Vec<(&str, f64)> = PIPELINE
        .into_iter()
        .filter_map(|name| {
            let span = spans
                .iter()
                .find(|s| s.name.strip_prefix("preprocess.") == Some(name))?;
            Some((name, span.total.as_secs_f64()))
        })
        .collect();
    if phases.is_empty() {
        return;
    }
    let total: f64 = phases.iter().map(|(_, seconds)| seconds).sum();
    println!("--- preprocessing phases ---");
    println!("{:<24} {:>12} {:>7}", "phase", "seconds", "share");
    for (name, seconds) in phases {
        let share = if total > 0.0 {
            100.0 * seconds / total
        } else {
            0.0
        };
        println!("{name:<24} {seconds:>12.6} {share:>6.1}%");
    }
    println!("{:<24} {total:>12.6}", "total (phased)");
}

fn cmd_select_k(path: &str, o: &Options) -> Outcome {
    let loaded = load(path, o)?;
    let grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5];
    let (best, curve) = select_hub_ratio(&loaded.graph, o.config.c, &grid)?;
    println!("{:<6} {:>12}", "k", "|S|");
    for (k, nnz) in curve {
        let marker = if k == best { "  <-- minimum" } else { "" };
        println!("{k:<6.2} {nnz:>12}{marker}");
    }
    println!("\nrecommended hub ratio: {best}");
    Ok(())
}

fn cmd_preprocess(path: &str, out: &str, o: &Options) -> Outcome {
    let loaded = load(path, o)?;
    let solver = preprocess(&loaded.graph, o)?;
    let graph = o.embed_graph.then_some(&loaded.graph);
    bepi_core::persist::save_file_v6(&solver, graph, out)?;
    println!(
        "preprocessed {} nodes / {} edges into {out} (format v6, {}{})",
        loaded.graph.n(),
        loaded.graph.m(),
        format_bytes(
            std::fs::metadata(out)
                .map(|m| m.len() as usize)
                .unwrap_or(0)
        ),
        if o.embed_graph {
            ", graph embedded: live-update capable"
        } else {
            ""
        }
    );
    print_phase_table();
    Ok(())
}

/// Loads an index for serving: with `--mmap` as a shared read-only
/// mapping, otherwise onto the heap.
fn load_index(index: &str, mmap: bool) -> Outcome<(BePi, Option<Graph>)> {
    use bepi_core::persist;
    let loaded = if mmap {
        persist::load_mapped_file(index)
    } else {
        persist::load_file_with_graph(index)
    };
    Ok(loaded?)
}

fn cmd_serve_daemon(index: &str, o: &Options) -> Outcome {
    let cfg = &o.server;
    let mmap = o.mmap;
    let (solver, embedded) = load_index(index, mmap)?;
    let nodes = solver.node_count();

    // The rebuild pipeline needs the original adjacency: either embedded
    // in the index (`preprocess --embed-graph`) or given via --graph.
    // The embedded copy wins when both are present: checkpoints embed the
    // graph *with* all applied WAL updates, so restarting on the same
    // flags after a rebuild must not resurrect a stale edge list (the
    // compacted WAL can no longer replay those updates).
    let graph = match (embedded, &o.graph) {
        (Some(g), Some(p)) => {
            eprintln!(
                "warning: ignoring --graph {p}: the index embeds its own graph, \
                 which reflects every checkpointed update"
            );
            Some(g)
        }
        (Some(g), None) => Some(g),
        (None, Some(p)) => Some(read_graph(p, Some(nodes))?),
        (None, None) => None,
    };

    let live = graph.is_some();
    let engine = match graph {
        Some(g) => {
            // With a WAL, the durable state is checkpoint + log: default
            // the checkpoint to the index path so a restart on the same
            // flags resumes exactly where the daemon left off.
            let checkpoint_path = (o.live.checkpoint_path.clone())
                .or_else(|| o.live.wal_path.as_ref().map(|_| PathBuf::from(index)));
            LiveEngine::start(
                std::sync::Arc::new(solver),
                g,
                LiveConfig {
                    checkpoint_path,
                    // --mmap also re-maps each checkpoint and serves
                    // the mapped copy after every rebuild.
                    mmap_checkpoints: mmap,
                    ..o.live.clone()
                },
            )?
        }
        None => {
            if o.live.wal_path.is_some()
                || o.live.auto_flush_threshold > 0
                || o.live.checkpoint_path.is_some()
            {
                return Err(
                    "live-update flags (--wal/--auto-flush/--checkpoint) need the \
                            graph: re-preprocess with --embed-graph or pass --graph edges.txt"
                        .into(),
                );
            }
            LiveEngine::frozen(std::sync::Arc::new(solver))
        }
    };
    let version = engine.version();
    let handle = Server::start_live(engine, cfg)?;
    println!(
        "bepi-server listening on http://{} ({} nodes, {} index; cache {} entries, \
         queue depth {}, timeout {:?}; {}, graph version {})",
        handle.local_addr(),
        nodes,
        if mmap { "memory-mapped" } else { "heap" },
        cfg.cache_entries,
        cfg.queue_depth,
        cfg.timeout,
        if live {
            "live updates enabled"
        } else {
            "static snapshot"
        },
        version,
    );
    // Everything after the listening line is informational: a supervisor
    // (a test harness or a benchmark driver) may close our stdout as soon
    // as it has parsed the address, and a daemon must not die on EPIPE
    // because of it — hence fallible writes, not `println!`.
    let _ = daemon_println(
        "endpoints: /query?seed=S&top=K[&mode=exact|approx|auto][&trace=1]  /healthz  \
         /metrics  /version  /debug/slow  /debug/trace  POST /edges  POST /rebuild",
    );
    let _ = daemon_println(&format!(
        "approximate lane: {} (mode=auto degrades at {:.0}% queue pressure)",
        if live {
            "tpa engine"
        } else {
            "unavailable (no graph)"
        },
        cfg.pressure * 100.0,
    ));
    let _ = daemon_println("EOF on stdin (e.g. ctrl-D) shuts down gracefully");

    // stdin EOF is the daemon's SIGTERM-equivalent: installing a real
    // signal handler would need a non-std dependency, and a supervising
    // process can close our stdin just as easily as it can signal us.
    let trigger = handle.trigger();
    std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink()).ok();
    eprintln!("shutting down: draining queued and in-flight queries");
    trigger.fire();
    handle.join();
    eprintln!("bye");
    Ok(())
}

/// A `println!` that reports failure instead of panicking: daemons keep
/// running when a supervising process closes their stdout early.
fn daemon_println(line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")?;
    out.flush()
}

fn cmd_serve(index: &str, seed_s: &str, o: &Options) -> Outcome {
    if o.mmap {
        // One-shot queries have no startup-latency story, so run the
        // payload CRC pass the zero-copy open skips, before anything reads
        // the payloads: a corrupt section becomes a typed error here
        // instead of a panic in the decoder's debug checks or the solver.
        bepi_core::persist::verify_mapped_file(index)?;
    }
    let (solver, _graph) = load_index(index, o.mmap)?;
    let seed: usize = seed_s
        .parse()
        .map_err(|_| format!("bad node id: {seed_s}"))?;
    let r = solver.query(seed)?;
    println!(
        "# loaded index of {} nodes ({}), seed {}, {} inner iterations",
        solver.node_count(),
        if o.mmap { "memory-mapped" } else { "heap" },
        seed_s,
        r.iterations
    );
    print_ranking(None, &r, o.top);
    Ok(())
}
