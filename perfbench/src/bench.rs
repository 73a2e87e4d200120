//! The three workloads and the runs that measure them.

use crate::http::{self, Conn, Reply, Step};
use crate::inputs::{self, Mention};
use crate::layers;
use crate::stats;
use emblookup_core::{Compression, EmbLookup, EmbLookupModel};
use emblookup_serve::{ServeConfig, Server};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Results per lookup.
pub const K: usize = 10;
/// Cells per bulk request.
pub const BULK_CELLS: usize = 256;
/// Mentions whose answers are compared with the exact top-k.
const RECALL_SAMPLE: usize = 2000;
/// Requests of the unloaded closed-loop step of a traced point run.
pub const UNLOADED_POINT: usize = 300;
/// Batches of the unloaded closed-loop step of a traced bulk run.
pub const UNLOADED_BATCHES: usize = 8;
/// Untimed requests that warm connections and caches before a step.
const WARMUP: usize = 200;

// A shared 2-core virtual machine loses its cores to other tenants for
// stretches of milliseconds, in phases that last minutes. In an open loop
// every request that comes due during a stall waits it out, so in such a
// phase the median latency at a fixed rate climbs from 0.3 ms to several
// ms. In a closed loop a stall holds up only the requests in flight, and
// their median stays put. So the gated point metrics come from a closed
// loop over `nproc` connections. The open loop at the reference rate
// still runs, and its latency, tail and generator lateness are printed
// and traced.
/// Arrival rate of the open loop, requests per second: a fifth to a
/// third of the capacity both point workloads reach on 2 cores, busy
/// enough that cores rarely sleep between requests, whose wake-ups make
/// low-rate latency on a virtual machine swing from run to run.
const REF_RATE: f64 = 2000.0;
/// Parts of each point phase (reference rate, saturated loop), spread
/// evenly over the run's servers.
pub const POINT_PARTS: usize = 21;
/// Parts of a bulk run, spread evenly over the run's servers.
pub const BULK_PARTS: usize = 12;
/// Highest rate the mention budget covers in a closed loop; above it
/// mentions repeat.
const CLOSED_BUDGET_RPS: f64 = 12_000.0;

/// How a workload sends its traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Single-mention `POST /lookup`: the reference rate in an open loop,
    /// then a saturated closed loop that gives the gated metrics.
    Point,
    /// `POST /lookup/bulk` of [`BULK_CELLS`] table cells, closed loop on
    /// one connection.
    Bulk,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Index backend of the server (and of every shard).
    pub compression: Compression,
    /// Index shards the server scatter-gathers.
    pub shards: usize,
    /// Traffic shape.
    pub traffic: Traffic,
}

const PQ: Compression = Compression::Pq { m: 8, ks: 256 };
const HNSW_PQ: Compression = Compression::HnswPq {
    m: 16,
    ef_search: 64,
    pq_m: 8,
    pq_ks: 256,
};

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "point-pq-sharded",
        compression: PQ,
        shards: 4,
        traffic: Traffic::Point,
    },
    Workload {
        name: "point-hnswpq",
        compression: HNSW_PQ,
        shards: 1,
        traffic: Traffic::Point,
    },
    Workload {
        name: "bulk-tables",
        compression: HNSW_PQ,
        shards: 1,
        traffic: Traffic::Bulk,
    },
];

/// Input sizes of a run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Entities in the KG.
    pub entities: usize,
    /// ST-Wikidata-style tables generated for the bulk workload.
    pub tables: usize,
    /// Server start-ups timed for `setup_s` (median reported).
    pub setup_reps: usize,
    /// Tiny encoder and KG for the smoke mode.
    pub smoke: bool,
}

impl Scale {
    /// The measured configuration.
    pub const FULL: Scale = Scale {
        entities: 10_000,
        tables: 16_000,
        setup_reps: 3,
        smoke: false,
    };
    /// Seconds-long configuration for the smoke mode.
    pub const SMOKE: Scale = Scale {
        entities: 1_500,
        tables: 200,
        setup_reps: 1,
        smoke: true,
    };
}

/// A metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit from `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    /// Every answer passed its checks.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed (see [`Tally`]).
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Request accounting and answer quality across a run.
#[derive(Default)]
pub struct Tally {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed: non-200, an answer not from rung `full`, a
    /// partial shard tag, a connection error, or a malformed answer.
    pub failed: u64,
    /// The first few failure reasons.
    pub reasons: Vec<String>,
    /// Mentions whose source entity was in the top k.
    pub hits: u64,
    /// Mentions judged for hits.
    pub judged: u64,
    /// `(mention index, returned ids)` for the recall sample.
    pub recall: Vec<(usize, Vec<u32>)>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.reasons.len() < 5 {
            self.reasons.push(why);
        }
    }

    /// Checks one reply carrying answers for `mentions[first..]`, counts
    /// hits, and keeps ids for the recall sample. Returns the answer when
    /// it passed.
    pub fn verify(
        &mut self,
        reply: Result<&Reply, String>,
        w: &Workload,
        mentions: &[Mention],
        first: usize,
        count: usize,
        entities: usize,
    ) -> Option<http::Answer> {
        self.attempted += 1;
        match check_reply(reply, w.shards, count, entities) {
            Ok(answer) => {
                for (j, list) in answer.lists.iter().enumerate() {
                    let m = (first + j) % mentions.len();
                    self.judged += 1;
                    if list.iter().any(|&(id, _)| id == mentions[m].truth.0) {
                        self.hits += 1;
                    }
                    if self.recall.len() < RECALL_SAMPLE {
                        self.recall.push((m, list.iter().map(|h| h.0).collect()));
                    }
                }
                Some(answer)
            }
            Err(why) => {
                self.fail(why);
                None
            }
        }
    }
}

/// The answer checks: status 200, rung `full`, every shard answered,
/// `count` lists of `min(K, entities)` hits with valid ids and scores
/// (negated distances) in non-increasing order.
fn check_reply(
    reply: Result<&Reply, String>,
    shards: usize,
    count: usize,
    entities: usize,
) -> Result<http::Answer, String> {
    let reply = reply?;
    if reply.status != 200 {
        return Err(format!(
            "status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    if shards > 1 && reply.shards.as_deref() != Some(format!("{shards}/{shards}").as_str()) {
        return Err(format!("partial shard answer {:?}", reply.shards));
    }
    let answer = http::parse_answer(&reply.body)?;
    if !answer.full {
        return Err("answer not from rung full".into());
    }
    if answer.lists.len() != count {
        return Err(format!(
            "{} answer lists for {count} mentions",
            answer.lists.len()
        ));
    }
    let want = K.min(entities);
    for list in &answer.lists {
        if list.len() != want {
            return Err(format!("{} hits, want {want}", list.len()));
        }
        if list
            .iter()
            .any(|&(id, s)| id as usize >= entities || !s.is_finite())
        {
            return Err("invalid id or score".into());
        }
        if list.windows(2).any(|p| p[0].1 < p[1].1) {
            return Err("hits not in ascending distance order".into());
        }
    }
    Ok(answer)
}

/// Everything a run shares.
pub struct Ctx<'a> {
    /// The workload.
    pub w: &'a Workload,
    /// The KG (entities and labels).
    pub kg: &'a emblookup_kg::KnowledgeGraph,
    /// Encoder bytes.
    pub model_bytes: &'a [u8],
    /// Encoder configuration (its compression is the workload's, which
    /// the server's shard build reads).
    pub config: &'a emblookup_core::EmbLookupConfig,
    /// Lookup inputs, each sent once.
    pub mentions: &'a [Mention],
    /// Server worker threads.
    pub nproc: usize,
    /// Measured seconds.
    pub seconds: f64,
    /// Input sizes.
    pub scale: Scale,
    /// The run's `--seed`.
    pub seed: u64,
}

impl Ctx<'_> {
    /// Server configuration: defaults with `workers = nproc`.
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            workers: self.nproc,
            shards: self.w.shards,
            ..ServeConfig::default()
        }
    }

    /// The model as the server loads it from bytes.
    pub fn load_model(&self) -> Result<Arc<EmbLookupModel>, String> {
        EmbLookupModel::from_bytes(self.model_bytes, self.config.clone()).map(Arc::new)
    }

    /// One server start-up from model bytes and the KG in memory, as
    /// `emblookup-cli serve --model --kg` does it, until the server
    /// answers `GET /healthz`. Returns the server and the seconds taken.
    fn start_server(&self) -> Result<(Server, f64), String> {
        let t = Instant::now();
        let service = EmbLookup::from_model(self.load_model()?, self.kg, self.w.compression);
        let server = Server::start(service, self.kg, self.serve_config())
            .map_err(|e| format!("server start: {e}"))?;
        healthz(server.addr())?;
        Ok((server, t.elapsed().as_secs_f64()))
    }

    /// Text of mention `m`, wrapping around the pool.
    pub fn text(&self, m: usize) -> &str {
        &self.mentions[m % self.mentions.len()].text
    }

    /// JSON body of a point lookup.
    pub fn point_body(&self, m: usize) -> String {
        format!("{{\"q\":{},\"k\":{K}}}", http::json_str(self.text(m)))
    }

    /// JSON body of a bulk lookup of `BULK_CELLS` mentions from `first`.
    pub fn bulk_body(&self, first: usize) -> String {
        let cells: Vec<String> = (first..first + BULK_CELLS)
            .map(|m| http::json_str(self.text(m)))
            .collect();
        format!("{{\"queries\":[{}],\"k\":{K}}}", cells.join(","))
    }
}

/// `GET /healthz` on a fresh connection.
pub fn healthz(addr: SocketAddr) -> Result<(), String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let reply = conn.roundtrip(b"GET /healthz HTTP/1.1\r\nhost: emblookup\r\n\r\n")?;
    if reply.status == 200 {
        Ok(())
    } else {
        Err(format!("healthz status {}", reply.status))
    }
}

/// Seconds of the reference phase and of the saturated phase: a third
/// and two thirds of the run.
fn point_phases(seconds: f64) -> (f64, f64) {
    (seconds / 3.0, seconds * 2.0 / 3.0)
}

/// Seconds of one part of each phase.
fn point_part_secs(seconds: f64) -> (f64, f64) {
    let (ref_secs, sat_secs) = point_phases(seconds);
    let parts = POINT_PARTS as f64;
    (ref_secs / parts, sat_secs / parts)
}

/// Mentions a point run draws: a warm-up per server, both phases, and
/// the unloaded step and pipelined probe of a traced run.
pub fn point_budget(seconds: f64) -> usize {
    let probe = layers::PIPELINED_RATE * seconds / 10.0;
    let (ref_secs, sat_secs) = point_phases(seconds);
    Scale::FULL.setup_reps * WARMUP
        + UNLOADED_POINT
        + (REF_RATE * ref_secs + CLOSED_BUDGET_RPS * sat_secs + probe) as usize
}

/// The point traffic, each phase in parts.
#[derive(Default)]
pub struct PointRun {
    /// The reference rate, open loop.
    pub reference: Vec<Step>,
    /// `nproc` connections, closed loop.
    pub saturated: Vec<Step>,
    /// Connections of the saturated loop.
    pub conns: usize,
}

fn lat_of(steps: &[Step]) -> Vec<f64> {
    steps
        .iter()
        .flat_map(|s| s.lat_ms.iter().copied())
        .collect()
}

impl PointRun {
    /// `p50_ms`: the median latency of the saturated loop.
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.saturated_lat())
    }

    /// `capacity_rps`: by Little's law, the saturated loop's connections
    /// over its median latency, which leaves out host stalls that the
    /// mean would count.
    pub fn capacity(&self) -> f64 {
        self.conns as f64 * 1e3 / self.p50_ms()
    }

    /// The saturated loop's requests answered per wall-clock second.
    pub fn achieved_rps(&self) -> f64 {
        let ok: usize = self.saturated.iter().map(|s| s.ok).sum();
        let secs: f64 = self
            .saturated
            .iter()
            .map(|s| s.ok as f64 / s.achieved_rps.max(1e-9))
            .sum();
        ok as f64 / secs.max(1e-9)
    }

    /// Every latency of the reference rate, in ms.
    pub fn reference_lat(&self) -> Vec<f64> {
        lat_of(&self.reference)
    }

    /// Every latency of the saturated loop, in ms.
    pub fn saturated_lat(&self) -> Vec<f64> {
        lat_of(&self.saturated)
    }

    /// The median of the reference parts' tails.
    pub fn reference_tail(&self) -> stats::Tail {
        let parts: Vec<&[f64]> = self.reference.iter().map(|s| s.lat_ms.as_slice()).collect();
        median_tail(&parts)
    }

    /// Appends `other`'s parts.
    pub fn extend(&mut self, other: PointRun) {
        self.reference.extend(other.reference);
        self.saturated.extend(other.saturated);
        self.conns = other.conns;
    }
}

/// The median of the parts' tails, with the first part's percentile and
/// sample count.
fn median_tail(parts: &[&[f64]]) -> stats::Tail {
    let tails: Vec<stats::Tail> = parts.iter().map(|p| stats::tail(p)).collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    let (pct, n) = tails.first().map_or((0.0, 0), |t| (t.pct, t.n));
    stats::Tail {
        value: stats::median(&values),
        pct,
        n,
    }
}

/// Prints one step's figures.
pub fn print_step(label: &str, s: &Step) {
    let tail = stats::tail(&s.lat_ms);
    let rate = if s.rate > 0.0 {
        format!("rate={:.0}/s", s.rate)
    } else {
        "closed loop".to_string()
    };
    println!(
        "# step {label} {rate} sent={} ok={} failed={} p50_ms={:.4} tail_ms={:.4} (p{:.2} of {}) late_p50_ms={:.4} late_max_ms={:.4} backlog_end={} achieved={:.1}/s",
        s.sent,
        s.ok,
        s.failed,
        stats::median(&s.lat_ms),
        tail.value,
        tail.pct,
        tail.n,
        stats::median(&s.late_ms),
        s.late_ms.iter().copied().fold(0.0, f64::max),
        s.backlog_end,
        s.achieved_rps,
    );
}

/// The load generator's connections: one per core, so the client never
/// holds more connections than the server has workers.
pub fn open_conns(cx: &Ctx, addr: SocketAddr) -> Result<Vec<Conn>, String> {
    (0..cx.nproc)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))
}

/// Runs `f` on a thread of its own, readied by
/// [`http::prepare_generator_thread`]. The pin stays on that thread: a
/// server started later from a pinned thread would inherit the pin and
/// run on one core.
pub fn on_generator_thread<T: Send>(cores: usize, f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        s.spawn(|| {
            http::prepare_generator_thread(cores);
            f()
        })
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

fn point_reqs(cx: &Ctx, first: usize, count: usize) -> Vec<Vec<u8>> {
    (first..first + count)
        .map(|m| http::post("/lookup", &cx.point_body(m)))
        .collect()
}

/// One open-loop step of `count` point lookups at `rate`, drawing
/// mentions from `*cursor` on.
pub fn point_step(
    cx: &Ctx,
    conns: &mut [Conn],
    count: usize,
    rate: f64,
    pipeline: bool,
    cursor: &mut usize,
    tally: &mut Tally,
) -> Step {
    let first = *cursor;
    let count = count.max(1);
    *cursor += count;
    let reqs = point_reqs(cx, first, count);
    let entities = cx.kg.num_entities();
    http::open_loop(conns, &reqs, rate, pipeline, &mut |i, reply| {
        tally
            .verify(reply, cx.w, cx.mentions, first + i, 1, entities)
            .is_some()
    })
}

/// One closed-loop step of point lookups over `conns` for `secs`,
/// drawing mentions from `*cursor` on.
fn closed_step(
    cx: &Ctx,
    conns: &mut [Conn],
    secs: f64,
    cursor: &mut usize,
    tally: &mut Tally,
) -> Step {
    let first = *cursor;
    let reqs = point_reqs(cx, first, (CLOSED_BUDGET_RPS * secs) as usize + 1);
    let entities = cx.kg.num_entities();
    let step = http::closed_loop(
        conns,
        &reqs,
        Duration::from_secs_f64(secs),
        &mut |i, reply| {
            tally
                .verify(reply, cx.w, cx.mentions, first + i, 1, entities)
                .is_some()
        },
    );
    *cursor += step.sent;
    step
}

/// Runs `parts` parts of each point phase against `addr` after a
/// warm-up, on a generator thread, drawing mentions from `*cursor` on.
pub fn point_traffic(
    cx: &Ctx,
    addr: SocketAddr,
    parts: usize,
    cursor: &mut usize,
    tally: &mut Tally,
) -> Result<PointRun, String> {
    on_generator_thread(cx.nproc, || point_parts(cx, addr, parts, cursor, tally))
}

fn point_parts(
    cx: &Ctx,
    addr: SocketAddr,
    parts: usize,
    cursor: &mut usize,
    tally: &mut Tally,
) -> Result<PointRun, String> {
    let (ref_secs, sat_secs) = point_part_secs(cx.seconds);
    let mut conns = open_conns(cx, addr)?;
    // The recall sample comes from the reference rate.
    let recall = std::mem::take(&mut tally.recall);
    let warm = point_step(cx, &mut conns, WARMUP, REF_RATE, false, cursor, tally);
    print_step("warmup", &warm);
    tally.recall = recall;
    let part = (REF_RATE * ref_secs) as usize;
    let mut run = PointRun {
        conns: conns.len(),
        ..PointRun::default()
    };
    for p in 0..parts {
        let s = point_step(cx, &mut conns, part, REF_RATE, false, cursor, tally);
        print_step(&format!("reference[{p}]"), &s);
        run.reference.push(s);
    }
    for p in 0..parts {
        let s = closed_step(cx, &mut conns, sat_secs, cursor, tally);
        print_step(&format!("saturated[{p}]"), &s);
        run.saturated.push(s);
    }
    Ok(run)
}

/// What a bulk run measured: per part, the batch latencies (ms) and
/// the seconds the part took.
pub struct BulkRun {
    /// The parts, in order.
    pub parts: Vec<(Vec<f64>, f64)>,
}

impl BulkRun {
    /// Every batch latency, in ms.
    pub fn lat(&self) -> Vec<f64> {
        self.parts
            .iter()
            .flat_map(|p| p.0.iter().copied())
            .collect()
    }

    /// `p50_ms`: the median batch latency.
    pub fn p50_ms(&self) -> f64 {
        stats::median(&self.lat())
    }

    /// `capacity_rps`: by Little's law, one connection over the median
    /// batch latency.
    pub fn batches_per_s(&self) -> f64 {
        1e3 / self.p50_ms()
    }

    /// Batches answered per wall-clock second.
    pub fn achieved_batches_per_s(&self) -> f64 {
        let batches: usize = self.parts.iter().map(|p| p.0.len()).sum();
        let secs: f64 = self.parts.iter().map(|p| p.1).sum();
        batches as f64 / secs.max(1e-9)
    }
}

/// The bulk traffic: two warm-up batches, then a closed loop of
/// `BULK_CELLS`-cell requests on one connection for `parts` of the run's
/// [`BULK_PARTS`] parts, drawing cells from `*cursor` on.
pub fn bulk_traffic(
    cx: &Ctx,
    addr: SocketAddr,
    parts: usize,
    cursor: &mut usize,
    tally: &mut Tally,
) -> Result<BulkRun, String> {
    let mut conn = Conn::open(addr).map_err(|e| format!("connect: {e}"))?;
    let entities = cx.kg.num_entities();
    let batch = |conn: &mut Conn, cursor: &mut usize, tally: &mut Tally| {
        let first = *cursor;
        *cursor += BULK_CELLS;
        let req = http::post("/lookup/bulk", &cx.bulk_body(first));
        let sent = Instant::now();
        let reply = conn.roundtrip(&req);
        let done = Instant::now();
        let ok = tally.verify(
            reply.as_ref().map_err(Clone::clone),
            cx.w,
            cx.mentions,
            first,
            BULK_CELLS,
            entities,
        );
        (ok.is_some(), sent, done)
    };
    let recall = std::mem::take(&mut tally.recall);
    for _ in 0..2 {
        batch(&mut conn, cursor, tally);
    }
    tally.recall = recall;
    let part_secs = cx.seconds / BULK_PARTS as f64;
    let mut run = BulkRun { parts: Vec::new() };
    for p in 0..parts {
        let t0 = Instant::now();
        let mut lat = Vec::new();
        let mut end = t0;
        while t0.elapsed().as_secs_f64() < part_secs {
            let (ok, sent, done) = batch(&mut conn, cursor, tally);
            end = done;
            if ok {
                lat.push((done - sent).as_secs_f64() * 1e3);
            }
        }
        let secs = (end - t0).as_secs_f64();
        println!(
            "# bulk part[{p}] batches={} p50_ms={:.4} batches_per_s={:.2}",
            lat.len(),
            stats::median(&lat),
            lat.len() as f64 / secs.max(1e-9)
        );
        run.parts.push((lat, secs));
    }
    Ok(run)
}

/// Mean overlap of the recall sample's answers with the exact top k
/// over the same embeddings.
fn recall_at_k(reference: &EmbLookup, mentions: &[Mention], sample: &[(usize, Vec<u32>)]) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let overlap: usize = sample
        .iter()
        .map(|(m, ids)| {
            reference
                .lookup_with_distances(&mentions[*m].text, K)
                .iter()
                .filter(|(id, _)| ids.contains(&id.0))
                .count()
        })
        .sum();
    overlap as f64 / (sample.len() * K) as f64
}

/// One run of workload `cx.w`: untraced for the end-to-end metrics, or
/// traced for the per-layer split.
pub fn run(cx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let metrics = if traced {
        layers::traced_run(cx, &mut tally)?
    } else {
        untraced_run(cx, &mut tally)?
    };
    for why in &tally.reasons {
        eprintln!("perfbench: failed request: {why}");
    }
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    })
}

fn untraced_run(cx: &Ctx, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    // The exact top-k for recall: a flat index over the same embeddings.
    let reference = EmbLookup::from_model(cx.load_model()?, cx.kg, Compression::None);
    // Each timed start-up then serves its share of the traffic's parts:
    // a fresh server has fresh threads, and where the scheduler puts
    // them sticks for the server's life, so the parts of one run see
    // several placements.
    let reps = cx.scale.setup_reps.max(1);
    let mut setups = Vec::new();
    let mut cursor = 0;
    let mut point = PointRun::default();
    let mut bulk = BulkRun { parts: Vec::new() };
    for rep in 0..reps {
        let (server, secs) = cx.start_server()?;
        setups.push(secs);
        println!("# server[{rep}] setup_s={secs:.4}");
        match cx.w.traffic {
            Traffic::Point => {
                let run = point_traffic(cx, server.addr(), POINT_PARTS / reps, &mut cursor, tally)?;
                point.extend(run);
            }
            Traffic::Bulk => {
                let run = bulk_traffic(cx, server.addr(), BULK_PARTS / reps, &mut cursor, tally)?;
                bulk.parts.extend(run.parts);
            }
        }
        // The server stops before the next starts.
        drop(server);
    }
    let (capacity, mentions_per_s, p50, tail) = match cx.w.traffic {
        Traffic::Point => {
            let cap = point.capacity();
            println!(
                "# reference rate {REF_RATE}/s, open loop: p50_ms={:.4}; saturated loop answered {:.1}/s of wall-clock time",
                stats::median(&point.reference_lat()),
                point.achieved_rps()
            );
            (cap, cap, point.p50_ms(), point.reference_tail())
        }
        Traffic::Bulk => {
            let rate = bulk.batches_per_s();
            println!(
                "# bulk answered {:.2} batches/s of wall-clock time",
                bulk.achieved_batches_per_s()
            );
            (
                rate,
                rate * BULK_CELLS as f64,
                bulk.p50_ms(),
                stats::tail(&bulk.lat()),
            )
        }
    };
    // The tail is printed but not gated: on a shared 2-core machine it
    // swings by more than any bound the benchmark could keep (README).
    println!(
        "# tail_ms {:.4} ms: p{:.2} of {} samples (point workloads: median over the reference parts); failed_share={:.6}",
        tail.value,
        tail.pct,
        tail.n,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let hit = tally.hits as f64 / tally.judged.max(1) as f64;
    let recall = recall_at_k(&reference, cx.mentions, &tally.recall);
    Ok(vec![
        metric("setup_s", stats::median(&setups), "s"),
        metric("capacity_rps", capacity, "1/s"),
        metric("mentions_per_s", mentions_per_s, "1/s"),
        metric("p50_ms", p50, "ms"),
        metric("hit_at_10", hit, "ratio"),
        metric("recall_at_10", recall, "ratio"),
        metric("rss_mb", inputs::peak_rss_mb(), "MiB"),
    ])
}
