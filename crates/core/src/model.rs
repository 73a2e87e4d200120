//! The EmbLookup embedding model (§III-B).
//!
//! Two legs with complementary strengths, fused by a two-layer MLP:
//!
//! * **Syntactic leg** — a stack of 1-D convolutions over the one-hot
//!   character matrix, max-pooled over time. CNNs with max pooling
//!   approximately preserve edit-distance bounds, giving the model its
//!   robustness to typos.
//! * **Semantic leg** — a frozen fastText-style subword embedding trained
//!   on KG labels/aliases, carrying alias- and relation-level similarity.
//!
//! `concat(cnn, fastText) → Linear → ReLU → Linear` produces the final
//! 64-d mention embedding compared under Euclidean distance.

use crate::config::EmbLookupConfig;
use emblookup_embed::{FastText, StringEncoder};
use emblookup_tensor::nn::{Conv1dLayer, Linear};
use emblookup_tensor::{Bindings, Graph, ParamStore, Tensor, Var};
use emblookup_text::{Alphabet, OneHotEncoder};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The trainable EmbLookup network plus its frozen semantic encoder.
pub struct EmbLookupModel {
    /// Trainable parameters (conv stack + fusion MLP).
    pub store: ParamStore,
    convs: Vec<Conv1dLayer>,
    fuse1: Linear,
    fuse2: Linear,
    onehot: OneHotEncoder,
    semantic: FastText,
    config: EmbLookupConfig,
}

impl EmbLookupModel {
    /// Builds the network with freshly initialized weights around an
    /// already-trained fastText model.
    ///
    /// # Panics
    /// Panics if `config` fails validation or the fastText dimension
    /// disagrees with `config.fasttext_dim`.
    pub fn new(semantic: FastText, config: EmbLookupConfig) -> Self {
        // lint: allow(L001) documented panic contract: config is validated up front, before any work
        config.validate().expect("invalid EmbLookup config");
        assert_eq!(
            semantic.dim(),
            config.fasttext_dim,
            "fastText dim {} != config.fasttext_dim {}",
            semantic.dim(),
            config.fasttext_dim
        );
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5eed));
        let mut store = ParamStore::new();
        let onehot = OneHotEncoder::new(Alphabet::default_lookup(), config.max_len);

        let mut convs = Vec::with_capacity(config.conv_layers);
        let mut in_ch = onehot.rows();
        for i in 0..config.conv_layers {
            convs.push(Conv1dLayer::new(
                &mut store,
                &format!("conv{i}"),
                in_ch,
                config.kernels,
                config.kernel_size,
                &mut rng,
            ));
            in_ch = config.kernels;
        }
        let fused_in = config.kernels * config.pool_segments + config.fasttext_dim;
        let fuse1 = Linear::new(&mut store, "fuse1", fused_in, config.fusion_hidden, &mut rng);
        let fuse2 = Linear::new(
            &mut store,
            "fuse2",
            config.fusion_hidden,
            config.embedding_dim,
            &mut rng,
        );

        EmbLookupModel {
            store,
            convs,
            fuse1,
            fuse2,
            onehot,
            semantic,
            config,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &EmbLookupConfig {
        &self.config
    }

    /// Output embedding dimension.
    pub fn dim(&self) -> usize {
        self.config.embedding_dim
    }

    /// The frozen semantic encoder.
    pub fn semantic(&self) -> &FastText {
        &self.semantic
    }

    /// One-hot matrix of a mention as a `[|A|, L]` tensor.
    fn encode_chars(&self, s: &str) -> Tensor {
        let (rows, cols) = self.onehot.shape();
        Tensor::from_vec(&[rows, cols], self.onehot.encode(s))
    }

    /// Records the forward pass for one mention on a training graph and
    /// returns its embedding node.
    pub fn forward(
        &self,
        g: &mut Graph,
        b: &mut Bindings,
        s: &str,
    ) -> Var {
        // Constant leaves: neither the one-hot character planes nor the frozen
        // fastText vector ever receive gradients, so marking them `constant`
        // lets `backward` skip the first conv layer's input-gradient pass.
        let mut x = g.constant(self.encode_chars(s));
        for conv in &self.convs {
            x = conv.forward(g, b, &self.store, x);
            x = g.relu(x);
        }
        let pooled = g.max_pool_segments(x, self.config.pool_segments); // [kernels * segments]
        let sem = g.constant(Tensor::vector(&self.semantic.embed(s))); // frozen
        let cat = g.concat(&[pooled, sem]);
        let h = self.fuse1.forward(g, b, &self.store, cat);
        let h = g.relu(h);
        let out = self.fuse2.forward(g, b, &self.store, h);
        let out = g.reshape(out, &[self.config.embedding_dim]);
        if self.config.l2_normalize {
            g.l2_normalize(out)
        } else {
            out
        }
    }

    /// Graph-free embedding of a mention — the hot path used to embed
    /// every KG entity when building the index and every query at lookup.
    pub fn embed(&self, s: &str) -> Vec<f32> {
        let mut x = self.encode_chars(s);
        for conv in &self.convs {
            x = conv.infer(&self.store, &x);
            for v in x.data_mut() {
                *v = v.max(0.0);
            }
        }
        // segmented max over time per channel (mirrors the graph op)
        let (c, l) = (x.shape()[0], x.shape()[1]);
        let segments = self.config.pool_segments;
        let chunk = l / segments;
        let mut fused = Vec::with_capacity(c * segments + self.config.fasttext_dim);
        for ch in 0..c {
            let row = &x.data()[ch * l..(ch + 1) * l];
            for s in 0..segments {
                let lo = s * chunk;
                let hi = if s + 1 == segments { l } else { lo + chunk };
                fused.push(row[lo..hi].iter().copied().fold(f32::NEG_INFINITY, f32::max));
            }
        }
        fused.extend(self.semantic.embed(s));
        let cat = Tensor::vector(&fused);
        let mut h = self.fuse1.infer(&self.store, &cat);
        for v in h.data_mut() {
            *v = v.max(0.0);
        }
        let mut out = self.fuse2.infer(&self.store, &h).into_data();
        if self.config.l2_normalize {
            let norm = out.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for v in &mut out {
                    *v /= norm;
                }
            }
        }
        out
    }

    /// Embeds a batch of mentions, preserving order — the bulk path
    /// behind index building and batched queries. `threads == 1` stays
    /// on the calling thread; larger values fan out over the persistent
    /// compute pool. Each mention's embedding lands in its own output
    /// slot, so results are bit-identical across thread counts.
    pub fn embed_batch(&self, mentions: &[&str], threads: usize) -> Vec<Vec<f32>> {
        let n = mentions.len();
        if n == 0 {
            return Vec::new();
        }
        let threads = threads.max(1).min(n);
        if threads == 1 {
            return mentions.iter().map(|m| self.embed(m)).collect();
        }
        let grain = n.div_ceil(threads * 2).max(1);
        emblookup_pool::Pool::global().parallel_map(n, grain, |i| self.embed(mentions[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EmbLookupConfig;
    use emblookup_embed::{Corpus, FastTextConfig};

    fn tiny_model() -> EmbLookupModel {
        let mut corpus = Corpus::default();
        for s in ["germany europe", "deutschland europe", "tokyo asia"] {
            corpus.add_sentence(s.split(' ').map(String::from).collect());
        }
        let ft = FastText::train(
            &corpus,
            FastTextConfig { dim: 16, buckets: 1 << 10, epochs: 2, ..Default::default() },
        );
        EmbLookupModel::new(ft, EmbLookupConfig::tiny(1))
    }

    #[test]
    fn embed_has_configured_dim_and_is_finite() {
        let m = tiny_model();
        let v = m.embed("germany");
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn graph_forward_matches_infer() {
        let m = tiny_model();
        let mut g = Graph::new();
        let mut b = Bindings::new();
        let var = m.forward(&mut g, &mut b, "east berlin");
        let graph_out = g.value(var).data().to_vec();
        let infer_out = m.embed("east berlin");
        assert_eq!(graph_out.len(), infer_out.len());
        for (a, b) in graph_out.iter().zip(&infer_out) {
            assert!((a - b).abs() < 1e-4, "graph {a} vs infer {b}");
        }
    }

    #[test]
    fn handles_degenerate_inputs() {
        let m = tiny_model();
        for s in ["", " ", "日本語", &"x".repeat(500)] {
            let v = m.embed(s);
            assert_eq!(v.len(), 16);
            assert!(v.iter().all(|x| x.is_finite()), "non-finite for {s:?}");
        }
    }

    #[test]
    fn batch_matches_sequential() {
        let m = tiny_model();
        let mentions = ["germany", "tokyo", "berlin", "paris", "rome"];
        let bits = |vs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            vs.iter().map(|v| v.iter().map(|x| x.to_bits()).collect()).collect()
        };
        let seq = m.embed_batch(&mentions, 1);
        for threads in [1usize, 4] {
            let par = m.embed_batch(&mentions, threads);
            assert_eq!(
                bits(&seq),
                bits(&par),
                "embed_batch not bit-identical at {threads} threads"
            );
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = tiny_model();
        let b = tiny_model();
        assert_eq!(a.embed("germany"), b.embed("germany"));
    }
}

impl EmbLookupModel {
    /// Serializes the trained model: the frozen fastText leg plus every
    /// trainable weight. Reload with [`EmbLookupModel::from_bytes`] under
    /// the same configuration.
    pub fn to_bytes(&self) -> Vec<u8> {
        let ft = self.semantic.to_bytes();
        let weights = self.store.to_bytes();
        let mut out = Vec::with_capacity(16 + ft.len() + weights.len());
        out.extend_from_slice(&(ft.len() as u64).to_le_bytes());
        out.extend_from_slice(&ft);
        out.extend_from_slice(&(weights.len() as u64).to_le_bytes());
        out.extend_from_slice(&weights);
        out
    }

    /// Restores a model serialized with [`EmbLookupModel::to_bytes`].
    /// `config` must match the architecture the weights were trained with.
    ///
    /// # Errors
    /// Returns a description of the first structural mismatch.
    pub fn from_bytes(bytes: &[u8], config: EmbLookupConfig) -> Result<Self, String> {
        let read_block = |cur: &mut usize| -> Result<&[u8], String> {
            let end = *cur + 8;
            let len =
                u64::from_le_bytes(
                    bytes
                        .get(*cur..end)
                        .ok_or("truncated model buffer")?
                        .try_into()
                        .map_err(|_| "truncated model buffer")?,
                ) as usize;
            *cur = end;
            let block_end = cur.checked_add(len).ok_or("truncated model block")?;
            let block = bytes.get(*cur..block_end).ok_or("truncated model block")?;
            *cur = block_end;
            Ok(block)
        };
        let mut cur = 0usize;
        let ft_block = read_block(&mut cur)?;
        let semantic = FastText::from_bytes(ft_block)?;
        let weight_block = read_block(&mut cur)?.to_vec();
        let mut model = EmbLookupModel::new(semantic, config);
        model.store.load_bytes(&weight_block)?;
        Ok(model)
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use crate::config::EmbLookupConfig;
    use emblookup_embed::{Corpus, FastTextConfig};

    #[test]
    fn model_round_trip_preserves_embeddings() {
        let mut corpus = Corpus::default();
        for s in ["alpha beta", "gamma delta"] {
            corpus.add_sentence(s.split(' ').map(String::from).collect());
        }
        let ft = FastText::train(
            &corpus,
            FastTextConfig { dim: 16, buckets: 1 << 10, epochs: 2, ..Default::default() },
        );
        let config = EmbLookupConfig::tiny(3);
        let model = EmbLookupModel::new(ft, config.clone());
        let bytes = model.to_bytes();
        let restored = EmbLookupModel::from_bytes(&bytes, config).unwrap();
        for s in ["alpha", "beta gamma", "xyz"] {
            assert_eq!(model.embed(s), restored.embed(s), "mismatch for {s}");
        }
    }

    #[test]
    fn model_load_rejects_hostile_block_length() {
        // a fastText block length that would overflow the cursor
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 16]);
        let err = EmbLookupModel::from_bytes(&bytes, EmbLookupConfig::tiny(1))
            .err()
            .expect("hostile block length");
        assert!(err.contains("truncated model block"), "{err}");
    }

    #[test]
    fn model_load_rejects_wrong_architecture() {
        let mut corpus = Corpus::default();
        corpus.add_sentence(vec!["a".into(), "b".into()]);
        let ft = FastText::train(
            &corpus,
            FastTextConfig { dim: 16, buckets: 1 << 8, epochs: 1, ..Default::default() },
        );
        let config = EmbLookupConfig::tiny(4);
        let model = EmbLookupModel::new(ft, config.clone());
        let bytes = model.to_bytes();
        let mut other = config;
        other.kernels = 12; // different conv width -> shape mismatch
        assert!(EmbLookupModel::from_bytes(&bytes, other).is_err());
    }
}
