//! Exact brute-force nearest-neighbour index ("IndexFlatL2" in FAISS
//! terms) — the EL-NC configuration of the paper, and the ground truth for
//! the recall experiments of Figure 4.
// lint: hot-path

use crate::topk::{Neighbor, TopK};
use crate::vectors::{sq_l2, VectorSet};
use crate::AnnIndex;

/// Exact L2 index scanning every stored vector per query.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    vectors: VectorSet,
}

impl FlatIndex {
    /// Builds the index by taking ownership of the vectors.
    pub fn new(vectors: VectorSet) -> Self {
        FlatIndex { vectors }
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.vectors.len()
    }

    /// True when the index holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.vectors.is_empty()
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.vectors.dim()
    }

    /// Borrows the underlying vectors (used as recall ground truth).
    pub fn vectors(&self) -> &VectorSet {
        &self.vectors
    }
}

impl AnnIndex for FlatIndex {
    fn name(&self) -> &'static str {
        "flat"
    }

    /// The full-precision 256 B/vector of the paper for 64-d embeddings.
    fn nbytes(&self) -> usize {
        self.vectors.nbytes()
    }

    /// Exact `k` nearest neighbours by squared L2 distance, sorted
    /// ascending; every stored vector is visited. Returns fewer than `k`
    /// hits only when the index holds fewer than `k` vectors.
    ///
    /// # Panics
    /// Panics if `query.len()` differs from the index dimension.
    fn search_visited(&self, query: &[f32], k: usize) -> (Vec<Neighbor>, u64) {
        assert_eq!(
            query.len(),
            self.vectors.dim(),
            "query dim {} != index dim {}",
            query.len(),
            self.vectors.dim()
        );
        if self.vectors.is_empty() || k == 0 {
            return (Vec::new(), 0);
        }
        let visited = self.vectors.len() as u64;
        crate::metrics::flat_searches().inc();
        crate::metrics::flat_visited().add(visited);
        let mut tk = TopK::new(k);
        for (i, v) in self.vectors.iter().enumerate() {
            tk.push(i, sq_l2(query, v));
        }
        (tk.into_sorted(), visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_index() -> FlatIndex {
        let mut vs = VectorSet::new(2);
        for x in 0..4 {
            for y in 0..4 {
                vs.push(&[x as f32, y as f32]);
            }
        }
        FlatIndex::new(vs)
    }

    #[test]
    fn nearest_is_self() {
        let idx = grid_index();
        let hits = idx.search(&[2.0, 3.0], 1);
        assert_eq!(hits[0].dist, 0.0);
        assert_eq!(idx.vectors().get(hits[0].index), &[2.0, 3.0]);
    }

    #[test]
    fn returns_sorted_k() {
        let idx = grid_index();
        let hits = idx.search(&[0.1, 0.1], 5);
        assert_eq!(hits.len(), 5);
        for w in hits.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        assert_eq!(idx.vectors().get(hits[0].index), &[0.0, 0.0]);
    }

    #[test]
    fn k_larger_than_index() {
        let idx = grid_index();
        let hits = idx.search(&[0.0, 0.0], 100);
        assert_eq!(hits.len(), 16);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = FlatIndex::new(VectorSet::new(2));
        assert!(idx.search(&[0.0, 0.0], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "query dim")]
    fn dim_mismatch_panics() {
        grid_index().search(&[1.0], 1);
    }
}
