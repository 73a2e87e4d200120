//! Micro-benchmarks behind Figures 4 and 5: product-quantization
//! train/encode/search against PCA projection and the flat baseline.

use emblookup_ann::{AnnIndex, FlatIndex, Pca, PqConfig, PqIndex, ProductQuantizer, VectorSet};
use emblookup_bench::micro::Group;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn random_set(n: usize, dim: usize, seed: u64) -> VectorSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vs = VectorSet::new(dim);
    for _ in 0..n {
        let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
        vs.push(&v);
    }
    vs
}

fn main() {
    let data = random_set(4000, 64, 1);
    let query: Vec<f32> = random_set(1, 64, 2).get(0).to_vec();

    let pq_cfg = PqConfig { m: 8, ks: 256, kmeans_iters: 8, seed: 0 };
    let quantizer = ProductQuantizer::train(&data, pq_cfg);
    let pq_index = PqIndex::from_quantizer(quantizer.clone(), &data);
    let flat = FlatIndex::new(data.clone());
    let pca = Pca::fit(&data, 8, 0);

    let mut group = Group::new("fig4_fig5_compression");
    group.bench("pq_encode_one_vector", || {
        black_box(quantizer.encode(black_box(&query)))
    });
    group.bench("pq_distance_table", || {
        black_box(quantizer.distance_table(black_box(&query)))
    });
    group.bench("pq_search_k20_4000", || {
        black_box(pq_index.search(black_box(&query), 20))
    });
    group.bench("flat_search_k20_4000", || {
        black_box(flat.search(black_box(&query), 20))
    });
    group.bench("pca_project_one_vector", || {
        black_box(pca.project(black_box(&query)))
    });
    group.finish();

    let mut train_group = Group::new("compression_build");
    train_group.bench("pq_train_4000x64", || {
        black_box(ProductQuantizer::train(&data, pq_cfg))
    });
    train_group.bench("pca_fit_k8_4000x64", || black_box(Pca::fit(&data, 8, 0)));
    train_group.finish();
}
