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
use bepi_sparse::io::read_edge_list_file;
use bepi_sparse::mem::format_bytes;
use std::process::ExitCode;

/// How `bepi query` computes its scores: the exact BePI solve or TPA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryMethod {
    /// Exact: BePI preprocessing + Schur/GMRES solve (default).
    Bepi,
    /// Truncated cumulative power iteration (`bepi_walk::tpa_scores`),
    /// the engine behind the daemon's approximate lane.
    Tpa,
}

struct Options {
    c: f64,
    tol: f64,
    k: Option<f64>,
    top: usize,
    max_size: Option<usize>,
    variant: BePiVariant,
    labels: bool,
    embed_graph: bool,
    mmap: bool,
    method: QueryMethod,
    terms: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            c: bepi_core::DEFAULT_RESTART_PROB,
            tol: bepi_core::DEFAULT_TOLERANCE,
            k: None,
            top: 10,
            max_size: None,
            variant: BePiConfig::default().variant,
            labels: false,
            embed_graph: false,
            mmap: false,
            method: QueryMethod::Bepi,
            terms: bepi_walk::ApproxConfig::default().max_terms,
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// The one usage text: printed by `bepi help` / `--help` and after every
/// argument error, so flag documentation cannot drift between the two.
const USAGE: &str = "usage:
  bepi query      <edges.txt> <seed> [--top K] [--method M] [common flags]
  bepi ppr        <edges.txt> <seed:weight> [<seed:weight> ...] [--top K] [common flags]
  bepi community  <edges.txt> <seed> [--max-size N] [common flags]
  bepi stats      <edges.txt|index.bepi> [--mmap] [common flags]
  bepi select-k   <edges.txt> [--c C]
  bepi preprocess <edges.txt> <out.bepi> [--embed-graph] [--format v6] [common flags]
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

common flags:
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

fn run() -> Result<(), String> {
    // BEPI_LOG seeds the level; a --log-level flag anywhere overrides it.
    bepi_obs::init_from_env();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    while let Some(i) = args.iter().position(|a| a == "--log-level") {
        if i + 1 >= args.len() {
            return Err("flag --log-level needs a value".into());
        }
        let value = args.remove(i + 1);
        args.remove(i);
        let level = bepi_obs::Level::parse(&value)
            .ok_or_else(|| format!("bad --log-level: {value} (try error|warn|info|debug|trace)"))?;
        bepi_obs::set_level(level);
    }
    let (cmd, rest) = args.split_first().ok_or("missing subcommand")?;
    match cmd.as_str() {
        "query" => {
            let (path, rest) = rest.split_first().ok_or("missing edge-list path")?;
            let (seed_s, rest) = rest.split_first().ok_or("missing seed node")?;
            let opts = parse_opts(rest)?;
            cmd_query(path, seed_s, &opts)
        }
        "ppr" => {
            let (path, rest) = rest.split_first().ok_or("missing edge-list path")?;
            let split = rest
                .iter()
                .position(|a| a.starts_with("--"))
                .unwrap_or(rest.len());
            let (seed_specs, flags) = rest.split_at(split);
            if seed_specs.is_empty() {
                return Err("ppr needs at least one seed:weight".into());
            }
            let opts = parse_opts(flags)?;
            cmd_ppr(path, seed_specs, &opts)
        }
        "community" => {
            let (path, rest) = rest.split_first().ok_or("missing edge-list path")?;
            let (seed_s, rest) = rest.split_first().ok_or("missing seed node")?;
            let opts = parse_opts(rest)?;
            cmd_community(path, seed_s, &opts)
        }
        "stats" => {
            let (path, rest) = rest.split_first().ok_or("missing edge-list path")?;
            let opts = parse_opts(rest)?;
            cmd_stats(path, &opts)
        }
        "select-k" => {
            let (path, rest) = rest.split_first().ok_or("missing edge-list path")?;
            let opts = parse_opts(rest)?;
            cmd_select_k(path, &opts)
        }
        "preprocess" => {
            let (path, rest) = rest.split_first().ok_or("missing edge-list path")?;
            let (out, rest) = rest.split_first().ok_or("missing output path")?;
            let opts = parse_opts(rest)?;
            cmd_preprocess(path, out, &opts)
        }
        "serve" => {
            let (index, rest) = rest.split_first().ok_or("missing index path")?;
            if rest.first().is_some_and(|a| a.starts_with("--")) {
                cmd_serve_daemon(index, rest)
            } else {
                let (seed_s, rest) = rest
                    .split_first()
                    .ok_or("missing seed node (or --listen ADDR for daemon mode)")?;
                let opts = parse_opts(rest)?;
                cmd_serve(index, seed_s, &opts)
            }
        }
        "help" | "--help" | "-h" => {
            // Tolerate a closed pipe (`bepi help | head`): ignore the
            // write error instead of panicking like `println!` would.
            use std::io::Write as _;
            let _ = writeln!(std::io::stdout(), "{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand: {other}")),
    }
}

fn parse_opts(mut rest: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    while let Some((flag, tail)) = rest.split_first() {
        if flag == "--labels" {
            o.labels = true;
            rest = tail;
            continue;
        }
        if flag == "--embed-graph" {
            o.embed_graph = true;
            rest = tail;
            continue;
        }
        if flag == "--mmap" {
            o.mmap = true;
            rest = tail;
            continue;
        }
        let (value, tail) = tail
            .split_first()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--c" => o.c = value.parse().map_err(|_| format!("bad --c: {value}"))?,
            "--tol" => o.tol = value.parse().map_err(|_| format!("bad --tol: {value}"))?,
            "--k" => o.k = Some(value.parse().map_err(|_| format!("bad --k: {value}"))?),
            "--top" => o.top = value.parse().map_err(|_| format!("bad --top: {value}"))?,
            "--max-size" => {
                o.max_size = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --max-size: {value}"))?,
                )
            }
            "--format" => {
                if value.trim_start_matches('v') != "6" {
                    return Err(format!(
                        "bad --format: {value} (v6 is the only index format)"
                    ));
                }
            }
            "--method" => {
                o.method = match value.as_str() {
                    "bepi" => QueryMethod::Bepi,
                    "tpa" => QueryMethod::Tpa,
                    m => return Err(format!("bad --method: {m} (try bepi|tpa)")),
                }
            }
            "--terms" => {
                o.terms = value.parse().map_err(|_| format!("bad --terms: {value}"))?;
                if o.terms == 0 {
                    return Err("--terms must be at least 1".into());
                }
            }
            "--variant" => {
                o.variant = match value.as_str() {
                    "full" => BePiVariant::Full,
                    "sparse" => BePiVariant::Sparse,
                    "basic" => BePiVariant::Basic,
                    v => return Err(format!("bad --variant: {v}")),
                }
            }
            f => return Err(format!("unknown flag: {f}")),
        }
        rest = tail;
    }
    Ok(o)
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

    fn node_name(&self, id: usize) -> String {
        match &self.indexer {
            Some(ix) => ix.label(id).unwrap_or("?").to_string(),
            None => id.to_string(),
        }
    }
}

fn load(path: &str, opts: &Options) -> Result<Loaded, String> {
    if opts.labels {
        let (graph, indexer) = read_labeled_edge_list_file(path).map_err(|e| e.to_string())?;
        Ok(Loaded {
            graph,
            indexer: Some(indexer),
        })
    } else {
        let coo = read_edge_list_file(path, None).map_err(|e| e.to_string())?;
        Ok(Loaded {
            graph: Graph::from_adjacency(coo.to_csr()).map_err(|e| e.to_string())?,
            indexer: None,
        })
    }
}

fn config_of(o: &Options) -> BePiConfig {
    BePiConfig {
        variant: o.variant,
        c: o.c,
        tol: o.tol,
        hub_ratio: o.k,
        ..BePiConfig::default()
    }
}

fn preprocess(g: &Graph, o: &Options) -> Result<BePi, String> {
    BePi::preprocess(g, &config_of(o)).map_err(|e| e.to_string())
}

fn print_ranking(loaded: &Loaded, scores: &RwrScores, top: usize) {
    println!("{:<16} {:>14} {:>6}", "node", "rwr-score", "rank");
    for (rank, node) in scores.top_k(top).into_iter().enumerate() {
        println!(
            "{:<16} {:>14.6e} {:>6}",
            loaded.node_name(node),
            scores.scores[node],
            rank + 1
        );
    }
}

fn cmd_query(path: &str, seed_s: &str, o: &Options) -> Result<(), String> {
    let loaded = load(path, o)?;
    let seed = loaded.node_id(seed_s)?;
    let (label, r) = match o.method {
        QueryMethod::Bepi => {
            let solver = preprocess(&loaded.graph, o)?;
            let r = solver.query(seed).map_err(|e| e.to_string())?;
            (o.variant.name().to_string(), r)
        }
        QueryMethod::Tpa => {
            let engine = bepi_walk::ApproxEngine::new(
                &loaded.graph,
                o.c,
                bepi_walk::ApproxConfig { max_terms: o.terms },
            )
            .map_err(|e| e.to_string())?;
            let r = engine.query(seed, 0).map_err(|e| e.to_string())?;
            (format!("tpa (max {} terms)", o.terms), r)
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
    print_ranking(&loaded, &r, o.top);
    Ok(())
}

fn cmd_ppr(path: &str, seed_specs: &[String], o: &Options) -> Result<(), String> {
    let loaded = load(path, o)?;
    let mut q = vec![0.0; loaded.graph.n()];
    for spec in seed_specs {
        let (node_s, weight_s) = spec
            .split_once(':')
            .ok_or_else(|| format!("seed spec must be node:weight, got {spec}"))?;
        let node = loaded.node_id(node_s)?;
        let w: f64 = weight_s
            .parse()
            .map_err(|_| format!("bad weight in {spec}"))?;
        q[node] += w;
    }
    let total: f64 = q.iter().sum();
    if total <= 0.0 {
        return Err("preference weights must sum to a positive value".into());
    }
    for v in &mut q {
        *v /= total;
    }
    let solver = preprocess(&loaded.graph, o)?;
    let r = solver.query_vector(&q).map_err(|e| e.to_string())?;
    println!(
        "# Personalized PageRank over {} seeds, {} inner iterations",
        seed_specs.len(),
        r.iterations
    );
    print_ranking(&loaded, &r, o.top);
    Ok(())
}

fn cmd_community(path: &str, seed_s: &str, o: &Options) -> Result<(), String> {
    let loaded = load(path, o)?;
    let seed = loaded.node_id(seed_s)?;
    let solver = preprocess(&loaded.graph, o)?;
    let scores = solver.query(seed).map_err(|e| e.to_string())?;
    let cut = sweep_cut(&loaded.graph, &scores, o.max_size).map_err(|e| e.to_string())?;
    println!(
        "# community of seed {} — {} nodes, conductance {:.4}",
        seed_s,
        cut.nodes.len(),
        cut.conductance
    );
    for node in &cut.nodes {
        println!("{}", loaded.node_name(*node));
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
    let (mut heap, mut mapped) = (0usize, 0usize);
    for s in solver.memory_report() {
        heap += s.heap_bytes;
        mapped += s.mapped_bytes;
        println!(
            "{:<10} {:>12} {:>12}",
            s.name,
            format_bytes(s.heap_bytes),
            format_bytes(s.mapped_bytes)
        );
    }
    println!(
        "{:<10} {:>12} {:>12}",
        "total",
        format_bytes(heap),
        format_bytes(mapped)
    );
}

/// What the index stores per spoke and per node: the `H11` blocks, how
/// many are 1 × 1 (no factor rows, one `U1⁻¹` value each), the factor rows
/// stored against `n1`, and the one permutation map.
fn print_h11_layout(solver: &BePi) {
    let (h11, s) = (solver.h11_factors(), solver.stats());
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
        let own = m.mem_bytes() - m.table().map_or(0, |t| t.mem_bytes());
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
            format_bytes(own)
        );
    }
    let h11 = solver.h11_factors();
    let singletons = h11.singletons();
    let (form, bytes) = match singletons {
        CodedValues::Plain(v) => ("plain", v.mem_bytes()),
        CodedValues::Coded { codes, .. } => ("coded", codes.mem_bytes()),
    };
    println!(
        "{:<10} {:>8} {form:>8} {:>13} {:>12} {:>12}",
        "u1_inv 1x1",
        "-",
        "-",
        singletons.len(),
        format_bytes(bytes)
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
fn cmd_index_stats(path: &str, o: &Options) -> Result<(), String> {
    let rss_before = resident_bytes();
    let (solver, graph) = load_index(path, o.mmap)?;
    let rss_after = resident_bytes();
    let s = solver.stats();
    println!("index            {path}");
    println!("format           v{}", bepi_core::persist::VERSION_MAPPED);
    println!(
        "backing          {}",
        if o.mmap { "memory-mapped" } else { "heap" }
    );
    println!("nodes            {}", solver.node_count());
    println!("n1 / n2 / n3     {} / {} / {}", s.n1, s.n2, s.n3);
    print_h11_layout(&solver);
    println!("|S|              {}", s.s_nnz);
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
    for (name, len) in bepi_core::persist::list_sections(path).map_err(|e| e.to_string())? {
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

fn cmd_stats(path: &str, o: &Options) -> Result<(), String> {
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
    let solver = preprocess(g, o)?;
    let s = solver.stats();
    println!("--- BePI preprocessing ({}) ---", o.variant.name());
    println!("n1 / n2 / n3     {} / {} / {}", s.n1, s.n2, s.n3);
    print_h11_layout(&solver);
    println!("|S|              {}", s.s_nnz);
    println!("preprocess time  {:?}", s.elapsed);
    println!(
        "preprocessed     {}",
        format_bytes(solver.preprocessed_bytes())
    );
    print_phase_table(&s.phases);
    Ok(())
}

/// Per-phase preprocessing wall times (the breakdown behind the paper's
/// Table 3 preprocessing-time comparison).
fn print_phase_table(phases: &[PhaseTiming]) {
    if phases.is_empty() {
        return;
    }
    let total: f64 = phases.iter().map(|p| p.seconds).sum();
    println!("--- preprocessing phases ---");
    println!("{:<24} {:>12} {:>7}", "phase", "seconds", "share");
    for p in phases {
        let share = if total > 0.0 {
            100.0 * p.seconds / total
        } else {
            0.0
        };
        println!("{:<24} {:>12.6} {:>6.1}%", p.name, p.seconds, share);
    }
    println!("{:<24} {total:>12.6}", "total (phased)");
}

fn cmd_select_k(path: &str, o: &Options) -> Result<(), String> {
    let loaded = load(path, o)?;
    let grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.4, 0.5];
    let (best, curve) = select_hub_ratio(&loaded.graph, o.c, &grid).map_err(|e| e.to_string())?;
    println!("{:<6} {:>12}", "k", "|S|");
    for (k, nnz) in curve {
        let marker = if k == best { "  <-- minimum" } else { "" };
        println!("{k:<6.2} {nnz:>12}{marker}");
    }
    println!("\nrecommended hub ratio: {best}");
    Ok(())
}

fn cmd_preprocess(path: &str, out: &str, o: &Options) -> Result<(), String> {
    if o.labels {
        return Err("preprocess/serve work with integer node ids (the label \
                    mapping is not stored in the index)"
            .into());
    }
    let loaded = load(path, o)?;
    let solver = preprocess(&loaded.graph, o)?;
    let graph = o.embed_graph.then_some(&loaded.graph);
    bepi_core::persist::save_file_v6(&solver, graph, out).map_err(|e| e.to_string())?;
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
    print_phase_table(&solver.stats().phases);
    Ok(())
}

/// Loads an index for serving: with `--mmap` as a shared read-only
/// mapping, otherwise onto the heap.
fn load_index(index: &str, mmap: bool) -> Result<(BePi, Option<Graph>), String> {
    use bepi_core::persist;
    let loaded = if mmap {
        persist::load_mapped_file(index)
    } else {
        persist::load_file_with_graph(index)
    };
    loaded.map_err(|e| e.to_string())
}

fn cmd_serve_daemon(index: &str, flags: &[String]) -> Result<(), String> {
    use bepi_live::{LiveConfig, LiveEngine};
    use bepi_server::{Server, ServerConfig};
    use std::path::PathBuf;

    let mut cfg = ServerConfig::default();
    let mut listen: Option<String> = None;
    let mut wal: Option<String> = None;
    let mut graph_path: Option<String> = None;
    let mut checkpoint: Option<String> = None;
    let mut auto_flush: usize = 0;
    let mut mmap = false;
    let mut rest = flags;
    while let Some((flag, tail)) = rest.split_first() {
        if flag == "--mmap" {
            mmap = true;
            rest = tail;
            continue;
        }
        let (value, tail) = tail
            .split_first()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--listen" => listen = Some(value.clone()),
            "--wal" => wal = Some(value.clone()),
            "--graph" => graph_path = Some(value.clone()),
            "--checkpoint" => checkpoint = Some(value.clone()),
            "--auto-flush" => {
                auto_flush = value
                    .parse()
                    .map_err(|_| format!("bad --auto-flush: {value}"))?
            }
            "--threads" => {
                cfg.threads = value
                    .parse()
                    .map_err(|_| format!("bad --threads: {value}"))?
            }
            "--cache-entries" => {
                cfg.cache_entries = value
                    .parse()
                    .map_err(|_| format!("bad --cache-entries: {value}"))?
            }
            "--queue-depth" => {
                cfg.queue_depth = value
                    .parse()
                    .map_err(|_| format!("bad --queue-depth: {value}"))?;
                if cfg.queue_depth == 0 {
                    return Err("--queue-depth must be at least 1".into());
                }
            }
            "--timeout-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --timeout-ms: {value}"))?;
                if ms == 0 {
                    return Err("--timeout-ms must be at least 1".into());
                }
                cfg.timeout = std::time::Duration::from_millis(ms);
            }
            "--slow-query-ms" => {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --slow-query-ms: {value}"))?;
                cfg.slow_query = std::time::Duration::from_millis(ms);
            }
            "--pressure" => {
                let p: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --pressure: {value}"))?;
                if p.is_nan() || p < 0.0 {
                    return Err("--pressure must be a non-negative fraction".into());
                }
                cfg.pressure = p;
            }
            "--trace-export" => cfg.trace_export = Some(PathBuf::from(value)),
            f => return Err(format!("unknown flag: {f}")),
        }
        rest = tail;
    }
    cfg.listen = listen.ok_or("daemon mode needs --listen ADDR")?;

    let (solver, embedded) = load_index(index, mmap)?;
    let nodes = solver.node_count();

    // The rebuild pipeline needs the original adjacency: either embedded
    // in the index (`preprocess --embed-graph`) or given via --graph.
    // The embedded copy wins when both are present: checkpoints embed the
    // graph *with* all applied WAL updates, so restarting on the same
    // flags after a rebuild must not resurrect a stale edge list (the
    // compacted WAL can no longer replay those updates).
    let graph = match (embedded, &graph_path) {
        (Some(g), Some(p)) => {
            eprintln!(
                "warning: ignoring --graph {p}: the index embeds its own graph, \
                 which reflects every checkpointed update"
            );
            Some(g)
        }
        (Some(g), None) => Some(g),
        (None, Some(p)) => {
            let coo = read_edge_list_file(p, Some(nodes)).map_err(|e| e.to_string())?;
            Some(Graph::from_adjacency(coo.to_csr()).map_err(|e| e.to_string())?)
        }
        (None, None) => None,
    };

    let live = graph.is_some();
    let engine = match graph {
        Some(g) => {
            // With a WAL, the durable state is checkpoint + log: default
            // the checkpoint to the index path so a restart on the same
            // flags resumes exactly where the daemon left off.
            let checkpoint_path = checkpoint
                .clone()
                .or_else(|| wal.as_ref().map(|_| index.to_string()))
                .map(PathBuf::from);
            LiveEngine::start(
                std::sync::Arc::new(solver),
                g,
                LiveConfig {
                    auto_flush_threshold: auto_flush,
                    wal_path: wal.as_ref().map(PathBuf::from),
                    checkpoint_path,
                    // --mmap also re-maps each checkpoint and serves
                    // the mapped copy after every rebuild.
                    mmap_checkpoints: mmap,
                },
            )
            .map_err(|e| e.to_string())?
        }
        None => {
            if wal.is_some() || auto_flush > 0 || checkpoint.is_some() {
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
    let handle = Server::start_live(engine, &cfg).map_err(|e| e.to_string())?;
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

fn cmd_serve(index: &str, seed_s: &str, o: &Options) -> Result<(), String> {
    if o.mmap {
        // One-shot queries have no startup-latency story, so run the
        // payload CRC pass the zero-copy open skips, before anything reads
        // the payloads: a corrupt section becomes a typed error here
        // instead of a panic in the decoder's debug checks or the solver.
        bepi_core::persist::verify_mapped_file(index).map_err(|e| e.to_string())?;
    }
    let (solver, _graph) = load_index(index, o.mmap)?;
    let seed: usize = seed_s
        .parse()
        .map_err(|_| format!("bad node id: {seed_s}"))?;
    let r = solver.query(seed).map_err(|e| e.to_string())?;
    let loaded = Loaded {
        graph: Graph::from_edges(solver.node_count(), &[]).map_err(|e| e.to_string())?,
        indexer: None,
    };
    println!(
        "# loaded index of {} nodes ({}), seed {}, {} inner iterations",
        solver.node_count(),
        if o.mmap { "memory-mapped" } else { "heap" },
        seed_s,
        r.iterations
    );
    print_ranking(&loaded, &r, o.top);
    Ok(())
}
