//! Compact binary persistence for [`KnowledgeGraph`].
//!
//! Length-prefixed little-endian encoding over plain `Vec<u8>`/`&[u8]`
//! (no external buffer crates). The indexes (label/type/subject/object)
//! are rebuilt on load rather than stored, so the format contains only
//! the canonical data.

use crate::model::{EntityId, KnowledgeGraph, Object, PropertyId, TypeId};

/// Format magic + version, bumped on breaking changes.
const MAGIC: &[u8; 8] = b"EMBLKG01";

fn put_u32_le(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32_le(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a borrowed byte slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err("truncated KG buffer".into());
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn get_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn get_u32_le(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u32` element count, rejected unless `count` elements of
    /// at least `min_bytes` each fit in the bytes left — so a hostile
    /// header can never size an allocation beyond the buffer itself.
    fn get_count(&mut self, min_bytes: usize) -> Result<usize, String> {
        let count = self.get_u32_le()? as usize;
        match count.checked_mul(min_bytes) {
            Some(need) if need <= self.remaining() => Ok(count),
            _ => Err(format!(
                "count {count} exceeds the {} bytes left",
                self.remaining()
            )),
        }
    }

    fn get_str(&mut self) -> Result<String, String> {
        if self.remaining() < 4 {
            return Err("truncated string length".into());
        }
        let len = self.get_u32_le()? as usize;
        if self.remaining() < len {
            return Err(format!("truncated string body ({len} bytes)"));
        }
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|e| format!("invalid utf8: {e}"))
    }
}

/// Serializes a knowledge graph to bytes.
pub fn kg_to_bytes(kg: &KnowledgeGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(MAGIC);

    put_u32_le(&mut buf, kg.num_types() as u32);
    for t in 0..kg.num_types() as u32 {
        put_str(&mut buf, kg.type_name(TypeId(t)));
        put_u32_le(&mut buf, kg.type_parent(TypeId(t)).0);
    }

    put_u32_le(&mut buf, kg.num_properties() as u32);
    for p in 0..kg.num_properties() as u32 {
        put_str(&mut buf, kg.property_name(PropertyId(p)));
    }

    put_u32_le(&mut buf, kg.num_entities() as u32);
    for e in kg.entities() {
        put_str(&mut buf, &e.label);
        put_u32_le(&mut buf, e.aliases.len() as u32);
        for a in &e.aliases {
            put_str(&mut buf, a);
        }
        put_u32_le(&mut buf, e.types.len() as u32);
        for t in &e.types {
            put_u32_le(&mut buf, t.0);
        }
    }

    put_u32_le(&mut buf, kg.num_facts() as u32);
    for f in kg.facts() {
        put_u32_le(&mut buf, f.subject.0);
        put_u32_le(&mut buf, f.property.0);
        match &f.object {
            Object::Entity(o) => {
                buf.push(0);
                put_u32_le(&mut buf, o.0);
            }
            Object::Literal(s) => {
                buf.push(1);
                put_str(&mut buf, s);
            }
        }
    }
    buf
}

/// Restores a knowledge graph serialized with [`kg_to_bytes`], rebuilding
/// all lookup indexes.
///
/// # Errors
/// Returns a description of the first structural problem (bad magic,
/// truncation, dangling ids).
pub fn kg_from_bytes(bytes: &[u8]) -> Result<KnowledgeGraph, String> {
    let mut buf = Reader::new(bytes);
    if buf.remaining() < MAGIC.len() || buf.take(MAGIC.len())? != MAGIC {
        return Err("bad magic: not an EmbLookup KG file".into());
    }

    let mut kg = KnowledgeGraph::new();
    // minimum encoded sizes: a string is a 4-byte length, an id 4 bytes
    let n_types = buf.get_count(8)?;
    let mut parents = Vec::with_capacity(n_types);
    for _ in 0..n_types {
        let name = buf.get_str()?;
        parents.push(buf.get_u32_le()?);
        kg.add_type(name, None);
    }
    // fix parents in a second pass (add_type can't forward-reference)
    for (i, &p) in parents.iter().enumerate() {
        if p as usize >= n_types {
            return Err(format!("type {i} has dangling parent {p}"));
        }
        kg.set_type_parent(TypeId(i as u32), TypeId(p));
    }

    let n_props = buf.get_count(4)?;
    for _ in 0..n_props {
        let name = buf.get_str()?;
        kg.add_property(name);
    }

    let n_entities = buf.get_count(12)?;
    for _ in 0..n_entities {
        let label = buf.get_str()?;
        let n_aliases = buf.get_count(4)?;
        let mut aliases = Vec::with_capacity(n_aliases);
        for _ in 0..n_aliases {
            aliases.push(buf.get_str()?);
        }
        let n_t = buf.get_count(4)?;
        let mut types = Vec::with_capacity(n_t);
        for _ in 0..n_t {
            let t = buf.get_u32_le()?;
            if t as usize >= n_types {
                return Err(format!("entity {label:?} has dangling type {t}"));
            }
            types.push(TypeId(t));
        }
        kg.add_entity(label, aliases, types);
    }

    let n_facts = buf.get_count(13)?;
    for _ in 0..n_facts {
        let subject = buf.get_u32_le()?;
        let property = buf.get_u32_le()?;
        if subject as usize >= n_entities {
            return Err(format!("fact has dangling subject {subject}"));
        }
        if property as usize >= n_props {
            return Err(format!("fact has dangling property {property}"));
        }
        let tag = buf.get_u8()?;
        let object = match tag {
            0 => {
                let o = buf.get_u32_le()?;
                if o as usize >= n_entities {
                    return Err(format!("fact has dangling object {o}"));
                }
                Object::Entity(EntityId(o))
            }
            1 => Object::Literal(buf.get_str()?),
            other => return Err(format!("unknown object tag {other}")),
        };
        kg.add_fact(EntityId(subject), PropertyId(property), object);
    }
    Ok(kg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthKgConfig};

    #[test]
    fn hostile_counts_are_rejected_before_allocating() {
        // u32::MAX types would reserve 16 GiB of parent ids up front
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = kg_from_bytes(&bytes).expect_err("hostile type count");
        assert!(err.contains("exceeds"), "{err}");
        // the same for a nested count: one entity claiming u32::MAX aliases
        let mut bytes = MAGIC.to_vec();
        for count in [0u32, 0, 1] {
            bytes.extend_from_slice(&count.to_le_bytes());
        }
        put_str(&mut bytes, "e");
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        let err = kg_from_bytes(&bytes).expect_err("hostile alias count");
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = generate(SynthKgConfig::tiny(77)).kg;
        let bytes = kg_to_bytes(&original);
        let restored = kg_from_bytes(&bytes).unwrap();

        assert_eq!(original.num_entities(), restored.num_entities());
        assert_eq!(original.num_types(), restored.num_types());
        assert_eq!(original.num_properties(), restored.num_properties());
        assert_eq!(original.num_facts(), restored.num_facts());
        for (a, b) in original.entities().zip(restored.entities()) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.aliases, b.aliases);
            assert_eq!(a.types, b.types);
        }
        // indexes were rebuilt: exact lookup still works
        let e = original.entities().nth(5).unwrap();
        assert_eq!(restored.find_exact(&e.label), original.find_exact(&e.label));
        // type hierarchy preserved
        for t in 0..original.num_types() as u32 {
            assert_eq!(
                original.type_parent(TypeId(t)),
                restored.type_parent(TypeId(t))
            );
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(kg_from_bytes(b"not a kg").is_err());
        let good = kg_to_bytes(&generate(SynthKgConfig::tiny(1)).kg);
        assert!(kg_from_bytes(&good[..good.len() / 2]).is_err());
    }

    #[test]
    fn empty_graph_round_trips() {
        let kg = KnowledgeGraph::new();
        let restored = kg_from_bytes(&kg_to_bytes(&kg)).unwrap();
        assert_eq!(restored.num_entities(), 0);
    }
}
