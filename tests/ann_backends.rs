//! Cross-backend contract test: every index in `emblookup-ann` answers the
//! same workload through the one [`AnnIndex`] trait with consistent
//! semantics (sorted, distinct, bounded by k, a non-zero visited count),
//! identical traced and untraced answers behind an `EntityIndex`, and
//! reasonable recall against the exact flat index.

use emblookup::ann::{
    lsh::LshConfig, AnnIndex, FlatIndex, HnswConfig, HnswIndex, HnswPqConfig, HnswPqIndex,
    IvfConfig, IvfIndex, PcaIndex, PqConfig, PqIndex, VectorSet,
};
use emblookup::core::EntityIndex;
use emblookup::kg::EntityId;
use emblookup::obs::{names, AnnoValue, Trace, TraceClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vs = VectorSet::new(dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        vs.push(&v);
    }
    vs
}

fn recall_vs_flat(flat: &FlatIndex, index: &dyn AnnIndex, queries: &VectorSet, k: usize) -> f64 {
    let mut acc = 0.0;
    for q in queries.iter() {
        let truth: Vec<usize> = flat.search(q, k).iter().map(|n| n.index).collect();
        let got: Vec<usize> = index.search(q, k).iter().map(|n| n.index).collect();
        acc += truth.iter().filter(|i| got.contains(i)).count() as f64 / k as f64;
    }
    acc / queries.len() as f64
}

#[test]
fn all_backends_honor_the_search_contract() {
    let data = random_set(600, 16, 1);
    let queries = random_set(20, 16, 2);
    let flat = FlatIndex::new(data.clone());

    let pq_cfg = PqConfig { m: 4, ks: 32, kmeans_iters: 8, seed: 0 };
    let hnsw_cfg = HnswConfig::default();
    let backends: Vec<(Box<dyn AnnIndex>, f64)> = vec![
        (Box::new(FlatIndex::new(data.clone())), 1.0),
        (Box::new(PqIndex::build(&data, pq_cfg)), 0.45),
        (Box::new(PcaIndex::build(&data, 12, 0)), 0.35),
        (
            Box::new(IvfIndex::build(
                data.clone(),
                IvfConfig { nlist: 16, nprobe: 6, kmeans_iters: 8, seed: 0 },
            )),
            0.55,
        ),
        (Box::new(HnswIndex::build(data.clone(), hnsw_cfg)), 0.80),
        (
            Box::new(HnswPqIndex::build(
                &data,
                HnswPqConfig { hnsw: HnswConfig { ef_search: 96, ..hnsw_cfg }, pq: pq_cfg },
            )),
            0.80,
        ),
    ];
    let ids: Vec<EntityId> = (0..data.len() as u32).map(EntityId).collect();

    for (backend, min_recall) in backends {
        let name = backend.name();
        // contract: sorted ascending, distinct, bounded by k, work counted
        let (hits, visited) = backend.search_visited(queries.get(0), 10);
        assert!(hits.len() <= 10, "{name} overflowed k");
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist, "{name} returned unsorted results");
        }
        let mut rows: Vec<usize> = hits.iter().map(|n| n.index).collect();
        rows.sort_unstable();
        rows.dedup();
        assert_eq!(rows.len(), hits.len(), "{name} returned duplicates");
        assert!(visited > 0, "{name} must report visited > 0");
        assert_eq!(backend.search(queries.get(0), 10), hits, "{name} search differs");

        // recall floor
        let r = recall_vs_flat(&flat, backend.as_ref(), &queries, 10);
        assert!(r >= min_recall, "{name} recall@10 {r} below floor {min_recall}");

        // traced and untraced answers agree, and the span is annotated
        let index = EntityIndex::from_backend(ids.clone(), backend);
        assert_eq!(index.backend_name(), name);
        for q in queries.iter().take(5) {
            let trace = Trace::start(1, TraceClock::real());
            let root = trace.root(names::SPAN_STAGE_SEARCH);
            let traced = index.search_traced(q, 10, Some(&root));
            root.finish();
            assert_eq!(traced, index.search(q, 10), "{name} traced differs");
            let data = trace.snapshot();
            assert_eq!(data.root_annotation("backend"), Some(AnnoValue::Str(name)));
            assert!(
                matches!(data.root_annotation("visited"), Some(AnnoValue::U64(v)) if v > 0),
                "{name} span must carry visited > 0"
            );
        }
    }
}

#[test]
fn lsh_candidates_find_near_duplicates() {
    use emblookup::ann::lsh::hash_feature;
    use emblookup::ann::MinHashLsh;
    use emblookup::text::distance::qgrams;

    let mut lsh = MinHashLsh::new(LshConfig { bands: 16, rows: 3, seed: 0 });
    let names = ["product quantization", "product quantisation", "hnsw graph", "flat index"];
    for (i, n) in names.iter().enumerate() {
        let f: Vec<u64> = qgrams(n, 3).iter().map(|g| hash_feature(g)).collect();
        lsh.insert(i as u32, &f);
    }
    let f: Vec<u64> = qgrams("product quantization", 3).iter().map(|g| hash_feature(g)).collect();
    let cands = lsh.candidates(&f);
    assert!(cands.contains(&0));
    assert!(cands.contains(&1), "near-duplicate spelling missed");
}
