//! The traced run: per-layer numbers measured from outside each layer,
//! by timing calls into its public functions with spans kept here.

use crate::bench::{self, Ctx, Metric, Tally, Traffic, BULK_CELLS, K};
use crate::http::{self, Conn};
use crate::stats::{self, median};
use crate::trace::Tracer;
use emblookup_ann::VectorSet;
use emblookup_core::{
    merge_topk, num_threads, EmbLookup, EmbLookupModel, EntityIndex, ShardedIndex,
};
use emblookup_embed::StringEncoder;
use emblookup_kg::EntityId;
use emblookup_pool::Pool;
use emblookup_serve::{json, Ladder, ServeConfig, Server};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Mentions timed per layer pass.
const LAYER_SAMPLE: usize = 200;
/// Bulk batches timed per layer pass.
const LAYER_BATCHES: usize = 2;
/// Untraced/traced pass pairs; medians are reported.
const PASSES: usize = 3;
/// Point answers compared bit for bit with the in-process reference (a
/// bulk run compares its first batch).
const BITCHECK: usize = 50;
/// Rate of the pipelined probe, for a tenth of the run's seconds.
pub const PIPELINED_RATE: f64 = 600.0;

/// Inputs of the in-process layer passes.
struct Layers<'a> {
    model: &'a EmbLookupModel,
    service: &'a EmbLookup,
    /// The server's shards; on a 1-shard server, its one index, timed as
    /// a 1-shard scatter-gather would run it.
    shards: Vec<&'a EntityIndex>,
    sample: Vec<&'a str>,
    bodies: Vec<String>,
    batches: Vec<Vec<&'a str>>,
    batch_bodies: Vec<String>,
    threads: usize,
}

impl Layers<'_> {
    /// One pass of every layer call over the sample. Spans are named
    /// after the layer metric they feed.
    fn pass(&self, tr: &mut Tracer) {
        for (i, q) in self.sample.iter().enumerate() {
            let req = i as u64;
            let root = tr.open("perfbench.mention", None, req);
            let _ = tr.time("serve.decode", Some(root), req, || {
                json::parse(&self.bodies[i])
            });
            let emb = tr.time("core.encode", Some(root), req, || self.model.embed(q));
            tr.time("embed.fasttext", Some(root), req, || {
                self.model.semantic().embed(q)
            });
            tr.time("core.lookup", Some(root), req, || {
                self.service.lookup_with_distances(q, K)
            });
            tr.time("core.search", Some(root), req, || {
                self.service.index().search(&emb, K)
            });
            let mut per_shard = Vec::with_capacity(self.shards.len());
            for shard in &self.shards {
                per_shard.push(tr.time("core.shard", Some(root), req, || shard.search(&emb, K)));
            }
            tr.time("core.merge", Some(root), req, || merge_topk(&per_shard, K));
            tr.time("pool.scatter", Some(root), req, || {
                Pool::global().scatter(self.shards.len(), |s| self.shards[s].search(&emb, K))
            });
            tr.close(root);
        }
        for (b, batch) in self.batches.iter().enumerate() {
            let req = b as u64;
            let root = tr.open("perfbench.batch", None, req);
            let _ = tr.time("serve.decode_bulk", Some(root), req, || {
                json::parse(&self.batch_bodies[b])
            });
            tr.time("core.encode_batch", Some(root), req, || {
                self.model.embed_batch(batch, self.threads)
            });
            tr.time("core.bulk", Some(root), req, || {
                self.service.bulk_lookup(batch, K)
            });
            tr.close(root);
        }
    }
}

/// Per mention, the max and the sum of its `core.shard` spans.
fn shard_max_sum(tr: &Tracer) -> (Vec<f64>, Vec<f64>) {
    let mut by_mention: BTreeMap<Option<usize>, Vec<f64>> = BTreeMap::new();
    for s in tr.spans().iter().filter(|s| s.name == "core.shard") {
        by_mention.entry(s.parent).or_default().push(s.us());
    }
    by_mention
        .values()
        .map(|v| (v.iter().copied().fold(0.0, f64::max), v.iter().sum::<f64>()))
        .unzip()
}

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Counter value in the process-global registry.
fn global(name: &str) -> u64 {
    emblookup_obs::global().counter(name).get()
}

/// The traced run. Order: the first half of a server start-up (model
/// and index), a replay of start-up through the public build functions
/// for the set-up split, the in-process layer passes, the second half
/// of the start-up (server), an unloaded closed-loop step whose answers
/// are checked bit for bit, the workload's traffic, and a pipelined
/// probe.
pub fn traced_run(cx: &Ctx, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, true);
    let threads = num_threads();
    let w = cx.w;

    // -- set-up, first half: model bytes → service --------------------------
    let t = Instant::now();
    let model = cx.load_model()?;
    let mut service = EmbLookup::from_model(model.clone(), cx.kg, w.compression);
    let service_s = t.elapsed().as_secs_f64();
    tr.record("setup.service", t, Instant::now(), None, 0);

    // -- set-up split: the same work through the public build functions ------
    let labels: Vec<&str> = cx.kg.entities().map(|e| e.label.as_str()).collect();
    let ids: Vec<EntityId> = cx.kg.entities().map(|e| e.id).collect();
    let (embeddings, embed_s) = secs(|| model.embed_batch(&labels, threads));
    let mut vectors = VectorSet::new(model.dim());
    for v in &embeddings {
        vectors.push(v);
    }
    let (index, index_s) = secs(|| EntityIndex::from_vectors(ids, vectors, w.compression));
    // Server::start builds the shards (as here, single-threaded) only when
    // sharding.
    let (sharded, shards_s) = if w.shards > 1 {
        let (s, t) = secs(|| ShardedIndex::build(&model, cx.kg, w.compression, w.shards, 1));
        (Some(s), t)
    } else {
        (None, 0.0)
    };
    let (_ladder, ladder_s) =
        secs(|| Ladder::build(&service, cx.kg, ServeConfig::default().fallback_cap));
    let index_bytes = index.nbytes() as f64
        + sharded.as_ref().map_or(0.0, |s| {
            (0..s.num_shards())
                .map(|i| s.shard(i).nbytes() as f64)
                .sum()
        });
    drop(index);

    // -- in-process layer passes over the mentions the unloaded step sends --
    let layers = Layers {
        model: &model,
        service: &service,
        shards: match &sharded {
            Some(s) => (0..s.num_shards()).map(|i| s.shard(i)).collect(),
            None => vec![service.index()],
        },
        sample: (0..LAYER_SAMPLE).map(|m| cx.text(m)).collect(),
        bodies: (0..LAYER_SAMPLE).map(|m| cx.point_body(m)).collect(),
        batches: (0..LAYER_BATCHES)
            .map(|b| {
                (0..BULK_CELLS)
                    .map(|j| cx.text(b * BULK_CELLS + j))
                    .collect()
            })
            .collect(),
        batch_bodies: (0..LAYER_BATCHES)
            .map(|b| cx.bulk_body(b * BULK_CELLS))
            .collect(),
        threads,
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut off = Tracer::new(epoch, false);
    for _ in 0..PASSES {
        untraced.push(secs(|| layers.pass(&mut off)).1);
        traced.push(secs(|| layers.pass(&mut tr)).1);
    }
    drop(layers);
    let overhead_pct = (median(&traced) / median(&untraced) - 1.0) * 100.0;
    let batch: Vec<&str> = (0..BULK_CELLS).map(|j| cx.text(j)).collect();
    let mut bulk_at = |n: usize| {
        service.bulk_threads = n;
        let times: Vec<f64> = (0..PASSES)
            .map(|_| secs(|| service.bulk_lookup(&batch, K)).1)
            .collect();
        median(&times)
    };
    let bulk_one = bulk_at(1);
    let bulk_all = bulk_at(threads);
    service.bulk_threads = threads;
    let bulk_efficiency = bulk_one / (bulk_all * threads as f64);

    let p50 = |name: &str| median(&tr.durations_us(name));
    let decode_us = p50("serve.decode");
    let decode_bulk_us = p50("serve.decode_bulk");
    let encode_us = p50("core.encode");
    let fasttext_us = p50("embed.fasttext");
    let lookup_us = p50("core.lookup");
    let search_us = p50("core.search");
    let merge_us = p50("core.merge");
    let scatter_us = p50("pool.scatter");
    let (shard_max, shard_sum) = shard_max_sum(&tr);
    let (shard_max_us, shard_sum_us) = (median(&shard_max), median(&shard_sum));
    let encode_batch_us = p50("core.encode_batch") / BULK_CELLS as f64;
    let bulk_batch_us = p50("core.bulk");

    // The in-process reference answers for the bit-for-bit check.
    let reference_for = |q: &str| -> Vec<(u32, f32)> {
        let hits = match &sharded {
            Some(s) => s.search(&model.embed(q), K),
            None => service.lookup_with_distances(q, K),
        };
        hits.iter().map(|(id, d)| (id.0, -d)).collect()
    };
    let checked = match w.traffic {
        Traffic::Point => BITCHECK,
        Traffic::Bulk => BULK_CELLS,
    };
    let reference: Vec<Vec<(u32, f32)>> = (0..checked).map(|m| reference_for(cx.text(m))).collect();
    let backend = service.index().backend_name();

    // -- set-up, second half: service → server answering ---------------------
    let t = Instant::now();
    let server = Server::start(service, cx.kg, cx.serve_config())
        .map_err(|e| format!("server start: {e}"))?;
    let server_s = t.elapsed().as_secs_f64();
    tr.record("setup.server", t, Instant::now(), None, 0);
    bench::healthz(server.addr())?;
    let setup_s = service_s + t.elapsed().as_secs_f64();
    // `server_s` is timed on the real start-up; embed and index are the
    // replays of the service half.
    let setup_residual_s = setup_s - (embed_s + index_s + server_s);

    // -- unloaded step: closed loop, one connection, mentions 0.. ------------
    let visited = format!("ann.{backend}.visited_nodes");
    let searches = format!("ann.{backend}.searches");
    let counters = || {
        [
            global(&visited),
            global(&searches),
            global("pool.tasks"),
            global("pool.steal"),
        ]
    };
    let before = counters();
    let mut conn = Conn::open(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let (count, per_req) = match w.traffic {
        Traffic::Point => (bench::UNLOADED_POINT, 1),
        Traffic::Bulk => (bench::UNLOADED_BATCHES, BULK_CELLS),
    };
    let mut cursor = 0;
    let mut unloaded = Vec::with_capacity(count);
    let mut mismatches = 0;
    let step_span = tr.open("load.unloaded", None, 0);
    for r in 0..count {
        let first = cursor;
        cursor += per_req;
        let req = match w.traffic {
            Traffic::Point => http::post("/lookup", &cx.point_body(first)),
            Traffic::Bulk => http::post("/lookup/bulk", &cx.bulk_body(first)),
        };
        let sent = Instant::now();
        let reply = conn.roundtrip(&req);
        let done = Instant::now();
        tr.record("http.request", sent, done, Some(step_span), r as u64);
        let entities = cx.kg.num_entities();
        let Some(answer) = tally.verify(
            reply.as_ref().map_err(Clone::clone),
            w,
            cx.mentions,
            first,
            per_req,
            entities,
        ) else {
            continue;
        };
        unloaded.push((done - sent).as_secs_f64() * 1e6);
        for (j, list) in answer.lists.iter().enumerate() {
            let same = |want: &Vec<(u32, f32)>| {
                want.iter()
                    .map(|h| (h.0, h.1.to_bits()))
                    .eq(list.iter().map(|h| (h.0, h.1.to_bits())))
            };
            if reference.get(first + j).is_some_and(|want| !same(want)) {
                mismatches += 1;
            }
        }
    }
    tr.close(step_span);
    drop(conn);
    let after = counters();
    if mismatches > 0 {
        tally.failed += mismatches;
        tally.reasons.push(format!(
            "{mismatches} HTTP answers differ from the in-process reference"
        ));
    }
    let requests = unloaded.len().max(1) as f64;
    let visited_per_query = (after[0] - before[0]) as f64 / (after[1] - before[1]).max(1) as f64;
    let unloaded_p50_us = median(&unloaded);
    let stages_us = match (w.traffic, &sharded) {
        (Traffic::Point, Some(_)) => decode_us + encode_us + scatter_us + merge_us,
        (Traffic::Point, None) => decode_us + encode_us + search_us,
        (Traffic::Bulk, _) => decode_bulk_us + bulk_batch_us,
    };

    // -- the workload's traffic, for queue wait ------------------------------
    let wait = |lat: &[f64]| median(lat) - unloaded_p50_us / 1e3;
    let (wait_ref, wait_cap, tail) = match w.traffic {
        Traffic::Point => {
            let run =
                bench::point_traffic(cx, server.addr(), bench::POINT_PARTS, &mut cursor, tally)?;
            (
                wait(&run.reference_lat()),
                wait(&run.saturated_lat()),
                run.reference_tail(),
            )
        }
        Traffic::Bulk => {
            let lat =
                bench::bulk_traffic(cx, server.addr(), bench::BULK_PARTS, &mut cursor, tally)?
                    .lat();
            (wait(&lat), wait(&lat), stats::tail(&lat))
        }
    };

    // -- pipelined probe: point lookups written back to back ---------------
    let probe = (PIPELINED_RATE * cx.seconds / 10.0) as usize;
    let pipelined = bench::on_generator_thread(cx.nproc, || {
        let mut conns = bench::open_conns(cx, server.addr())?;
        Ok::<_, String>(bench::point_step(
            cx,
            &mut conns,
            probe,
            PIPELINED_RATE,
            true,
            &mut cursor,
            tally,
        ))
    })?;
    bench::print_step("pipelined", &pipelined);

    let snapshot = server.registry().snapshot();
    let serve = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    drop(server);

    let path = out_dir()?.join(format!("spans-{}-seed{}.jsonl", w.name, cx.seed));
    tr.write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    println!(
        "# p50 split (unloaded step): {unloaded_p50_us:.1} us end to end = {stages_us:.1} us measured stages + {:.1} us serve.other_us residual",
        unloaded_p50_us - stages_us
    );
    println!(
        "# setup split: {setup_s:.4} s = embed {embed_s:.4} + index {index_s:.4} + server {server_s:.4} (of which shards {shards_s:.4}, ladder {ladder_s:.4}) + residual {setup_residual_s:.4}"
    );

    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    Ok(vec![
        m("serve.unloaded_p50_us", unloaded_p50_us, "us"),
        m(
            "serve.decode_us",
            if w.traffic == Traffic::Bulk {
                decode_bulk_us
            } else {
                decode_us
            },
            "us",
        ),
        m("serve.other_us", unloaded_p50_us - stages_us, "us"),
        m("serve.queue_wait_ms.ref", wait_ref, "ms"),
        m("serve.queue_wait_ms.cap", wait_cap, "ms"),
        m("e2e.tail_ms", tail.value, "ms"),
        m("serve.pipelined_p50_ms", median(&pipelined.lat_ms), "ms"),
        m(
            "serve.pipelined_tail_ms",
            stats::tail(&pipelined.lat_ms).value,
            "ms",
        ),
        m("serve.shed", serve("serve.shed"), "count"),
        m("serve.degraded.flat", serve("serve.degraded.flat"), "count"),
        m(
            "serve.degraded.qgram",
            serve("serve.degraded.qgram"),
            "count",
        ),
        m("serve.partial", serve("serve.partial"), "count"),
        m(
            "serve.deadline.exceeded",
            serve("serve.deadline.exceeded"),
            "count",
        ),
        m("serve.errors", serve("serve.errors"), "count"),
        m("core.encode_us", encode_us, "us"),
        m("core.encode_batch_us", encode_batch_us, "us"),
        m("core.bulk_us", bulk_batch_us / BULK_CELLS as f64, "us"),
        m("core.lookup_us", lookup_us, "us"),
        m("core.search_us", search_us, "us"),
        m("core.shard_max_us", shard_max_us, "us"),
        m("core.shard_sum_us", shard_sum_us, "us"),
        m("core.merge_us", merge_us, "us"),
        m("core.index_bytes", index_bytes, "bytes"),
        m("embed.fasttext_us", fasttext_us, "us"),
        m("tensor.cnn_mlp_us", encode_us - fasttext_us, "us"),
        m("ann.visited_per_query", visited_per_query, "count"),
        m("pool.scatter_overhead_us", scatter_us - shard_max_us, "us"),
        m("pool.bulk_efficiency", bulk_efficiency, "ratio"),
        m(
            "pool.tasks",
            (after[2] - before[2]) as f64 / requests,
            "count",
        ),
        m(
            "pool.steal",
            (after[3] - before[3]) as f64 / requests,
            "count",
        ),
        m("setup.total_s", setup_s, "s"),
        m("setup.embed_s", embed_s, "s"),
        m("setup.index_s", index_s, "s"),
        m("setup.server_s", server_s, "s"),
        m("setup.ladder_s", ladder_s, "s"),
        m("setup.residual_s", setup_residual_s, "s"),
        m("trace.overhead_pct", overhead_pct, "%"),
    ])
}

/// Where a run writes its span file: beside the executable.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("perfbench-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}
