//! Everything a run feeds the system: the fixed encoder, the seeded KG,
//! point mentions and table cells, plus the facts that identify a run.

use emblookup_core::{EmbLookup, EmbLookupConfig};
use emblookup_kg::{generate, EntityId, KnowledgeGraph, SynthKg, SynthKgConfig};
use emblookup_semtab::{generate_dataset, with_alias_substitution, with_noise, DatasetConfig};
use emblookup_text::{NoiseInjector, NoiseKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Seed of the encoder's training run. The encoder is fixed across runs;
/// `--seed` drives only the KG, the mentions and the tables.
pub const MODEL_SEED: u64 = 42;

/// The encoder configuration: the paper's architecture at the fast
/// training budget, or the unit-test setting in smoke mode.
pub fn model_config(smoke: bool) -> EmbLookupConfig {
    if smoke {
        EmbLookupConfig::tiny(MODEL_SEED)
    } else {
        EmbLookupConfig::fast(MODEL_SEED)
    }
}

/// Trains the encoder and writes its bytes to `path` (through a
/// temporary file, so a reader never sees a partial model).
pub fn train_model(path: &Path, smoke: bool) -> std::io::Result<()> {
    let kg = if smoke {
        SynthKgConfig::tiny(MODEL_SEED)
    } else {
        SynthKgConfig::small(MODEL_SEED)
    };
    let synth = generate(kg);
    let service = EmbLookup::train_on(&synth.kg, model_config(smoke));
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, service.model().to_bytes())?;
    std::fs::rename(&tmp, path)
}

/// The trained encoder's bytes, trained once per build of this
/// benchmark and cached beside its executable. Training runs in a child
/// process so it never counts toward this run's time or peak memory.
pub fn model_bytes(smoke: bool) -> Result<Vec<u8>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let exe_bytes = std::fs::read(&exe).map_err(|e| format!("reading the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join("perfbench-cache");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let kind = if smoke { "tiny" } else { "fast" };
    let path = dir.join(format!("model-{kind}-{:016x}.bin", fnv64(&exe_bytes)));
    if !path.exists() {
        eprintln!("perfbench: training the {kind} encoder once for this build");
        let mut cmd = Command::new(&exe);
        cmd.arg("--train-model").arg(&path);
        if smoke {
            cmd.arg("--smoke");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("starting the training process: {e}"))?;
        if !status.success() {
            return Err(format!("training process failed: {status}"));
        }
    }
    std::fs::read(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

/// A synthetic Wikidata-flavour KG of about `entities` entities, with
/// the type mix of [`SynthKgConfig::small`] scaled up.
pub fn kg(seed: u64, entities: usize) -> SynthKg {
    let mut c = SynthKgConfig::small(seed);
    let scale = entities as f64 / c.total_entities() as f64;
    c.countries = ((c.countries as f64) * scale.sqrt()).round() as usize;
    c.cities = ((c.cities as f64) * scale).round() as usize;
    c.persons = ((c.persons as f64) * scale).round() as usize;
    c.organizations = ((c.organizations as f64) * scale).round() as usize;
    c.films = entities.saturating_sub(c.countries + c.cities + c.persons + c.organizations);
    generate(c)
}

/// A lookup input with the entity it was derived from.
#[derive(Debug, Clone)]
pub struct Mention {
    /// Surface text sent to the service.
    pub text: String,
    /// The entity whose label or alias the text came from.
    pub truth: EntityId,
}

fn noise() -> NoiseInjector {
    NoiseInjector::with_kinds(vec![
        NoiseKind::DropChar,
        NoiseKind::InsertChar,
        NoiseKind::SubstituteChar,
        NoiseKind::TransposeChars,
        NoiseKind::SwapTokens,
        NoiseKind::Abbreviate,
    ])
}

/// `count` distinct mentions: every label and alias of the KG in a
/// seeded order, each corrupted once by a typo, an abbreviation or a
/// token swap. Repeats are dropped, so no mention is looked up twice.
pub fn point_mentions(kg: &KnowledgeGraph, seed: u64, count: usize) -> Vec<Mention> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6D65_6E74);
    let names: Vec<(EntityId, &str)> = kg
        .entities()
        .flat_map(|e| {
            std::iter::once((e.id, e.label.as_str()))
                .chain(e.aliases.iter().map(move |a| (e.id, a.as_str())))
        })
        .collect();
    let injector = noise();
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(count);
    for _round in 0..16 {
        let mut order: Vec<usize> = (0..names.len()).collect();
        order.shuffle(&mut rng);
        for i in order {
            let (truth, name) = names[i];
            let text = injector.corrupt(name, &mut rng);
            if !text.trim().is_empty() && seen.insert(text.clone()) {
                out.push(Mention { text, truth });
                if out.len() == count {
                    return out;
                }
            }
        }
    }
    out
}

/// Entity cells of ST-Wikidata-style tables over `synth`, column by
/// column as an annotator sends them, so a column's repeated values
/// stay together. Every other table has its cells replaced by aliases,
/// then 30% of all cells get one misspelling.
pub fn table_cells(synth: &SynthKg, seed: u64, tables: usize) -> Vec<Mention> {
    let clean = generate_dataset(
        synth,
        &DatasetConfig {
            tables,
            rows: (4, 9),
            seed,
            name: "ST-Wikidata".into(),
        },
    );
    let aliased = with_alias_substitution(&clean, synth, seed ^ 0xA11A5);
    let mut mixed = clean.clone();
    for (i, t) in mixed.tables.iter_mut().enumerate() {
        if i % 2 == 1 {
            *t = aliased.tables[i].clone();
        }
    }
    let noisy = with_noise(&mixed, 0.3, seed ^ 0x0015E);
    let mut out = Vec::new();
    for t in &noisy.tables {
        for col in 0..t.num_cols() {
            for row in 0..t.num_rows() {
                let cell = t.cell(row, col);
                if let (Some(truth), false) = (cell.truth, cell.missing) {
                    out.push(Mention {
                        text: cell.text.clone(),
                        truth,
                    });
                }
            }
        }
    }
    out
}

/// 64-bit FNV-1a: the identity hash printed for the model and the KG.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The git revision of the source tree, read from `.git` without
/// running git; `"unknown"` outside a repository.
pub fn git_rev() -> String {
    let git = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU's brand string from CPUID, or the architecture name where
/// CPUID has none.
pub fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x80000000 reports the highest extended leaf; the brand
        // string sits in leaves 0x80000002..=0x80000004.
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            let brand = String::from_utf8_lossy(&bytes);
            return brand.trim_matches(char::from(0)).trim().to_string();
        }
    }
    std::env::consts::ARCH.to_string()
}

/// Peak resident memory of this process in MiB (`getrusage`).
pub fn peak_rss_mb() -> f64 {
    // struct rusage on 64-bit Linux: two timevals, then fourteen longs,
    // of which ru_maxrss (KiB) is the first.
    let mut usage = [0i64; 18];
    extern "C" {
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    // SAFETY: `usage` is 144 bytes, the size of struct rusage on 64-bit
    // Linux; RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, usage.as_mut_ptr()) };
    if rc != 0 {
        return 0.0;
    }
    usage[4] as f64 / 1024.0
}
