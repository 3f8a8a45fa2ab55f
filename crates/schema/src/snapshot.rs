//! Catalog snapshots: a binary serialization of the whole schema.
//!
//! The facade stores the encoded catalog as a (chained) record in the
//! same WAL-protected heap as the objects, so restart recovery restores
//! the schema the same way it restores data — the catalog is just
//! another recoverable structure, as in a real system where class
//! definitions live in bootstrap tables.

use crate::catalog::Catalog;
use crate::class::{Attribute, Class, MethodSig};
use orion_types::codec::{decode_value, encode_value};
use orion_types::wire::{
    get_count, get_count16, get_str, get_u16, get_u32, get_u8, put_str, retag,
};
use orion_types::{ClassId, DbError, DbResult, Domain};

use bytes::BufMut;

const MAGIC: u32 = 0x0D10_CA7A; // "odio-cata(log)"

fn put_attribute(out: &mut Vec<u8>, attr: &Attribute) {
    out.put_u32_le(attr.id);
    put_str(out, &attr.name);
    attr.domain.encode(out);
    encode_value(&attr.default, out);
    out.put_u8(attr.composite as u8);
    out.put_u16_le(attr.defined_in.0);
}

fn get_attribute(buf: &mut &[u8]) -> DbResult<Attribute> {
    Ok(Attribute {
        id: get_u32(buf)?,
        name: get_str(buf)?,
        domain: Domain::decode(buf)?,
        default: decode_value(buf)?,
        composite: get_u8(buf)? != 0,
        defined_in: ClassId(get_u16(buf)?),
    })
}

fn get_class(buf: &mut &[u8]) -> DbResult<Class> {
    let id = ClassId(get_u16(buf)?);
    let name = get_str(buf)?;
    let version = get_u32(buf)?;
    let supers =
        (0..get_count16(buf, 2)?).map(|_| get_u16(buf).map(ClassId)).collect::<DbResult<_>>()?;
    // An attribute is at least 13 bytes, a method signature 7.
    let local_attrs =
        (0..get_count16(buf, 13)?).map(|_| get_attribute(buf)).collect::<DbResult<_>>()?;
    let local_methods = (0..get_count16(buf, 7)?)
        .map(|_| {
            Ok(MethodSig {
                selector: get_str(buf)?,
                arity: get_u8(buf)?,
                defined_in: ClassId(get_u16(buf)?),
            })
        })
        .collect::<DbResult<_>>()?;
    Ok(Class { id, name, supers, local_attrs, local_methods, version })
}

impl Catalog {
    /// Serialize the entire schema (classes, attributes, methods,
    /// counters) to bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.put_u32_le(MAGIC);
        out.put_u32_le(self.version());
        out.put_u32_le(self.next_attr_id_raw());
        let slots = self.class_slots();
        out.put_u32_le(slots.len() as u32);
        for slot in slots {
            match slot {
                None => out.put_u8(0),
                Some(class) => {
                    out.put_u8(1);
                    out.put_u16_le(class.id.0);
                    put_str(&mut out, &class.name);
                    out.put_u32_le(class.version);
                    out.put_u16_le(class.supers.len() as u16);
                    for s in &class.supers {
                        out.put_u16_le(s.0);
                    }
                    out.put_u16_le(class.local_attrs.len() as u16);
                    for attr in &class.local_attrs {
                        put_attribute(&mut out, attr);
                    }
                    out.put_u16_le(class.local_methods.len() as u16);
                    for m in &class.local_methods {
                        put_str(&mut out, &m.selector);
                        out.put_u8(m.arity);
                        out.put_u16_le(m.defined_in.0);
                    }
                }
            }
        }
        out
    }

    /// Rebuild a catalog from a snapshot. Read caches start cold; the
    /// restored catalog validates clean or the restore fails.
    pub fn restore(mut bytes: &[u8]) -> DbResult<Catalog> {
        let catalog = decode_catalog(&mut bytes).map_err(retag(DbError::Storage))?;
        let problems = catalog.validate();
        if !problems.is_empty() {
            return Err(DbError::Storage(format!(
                "restored catalog fails validation: {}",
                problems.join("; ")
            )));
        }
        Ok(catalog)
    }
}

fn decode_catalog(buf: &mut &[u8]) -> DbResult<Catalog> {
    let magic = get_u32(buf)?;
    if magic != MAGIC {
        return Err(DbError::Storage(format!("bad catalog snapshot magic {magic:#x}")));
    }
    let version = get_u32(buf)?;
    let next_attr_id = get_u32(buf)?;
    let slots = (0..get_count(buf, 1)?)
        .map(|_| match get_u8(buf)? {
            0 => Ok(None),
            1 => get_class(buf).map(Some),
            other => Err(DbError::Storage(format!("bad class tag {other}"))),
        })
        .collect::<DbResult<_>>()?;
    Ok(Catalog::from_parts(slots, next_attr_id, version))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::AttrSpec;
    use crate::SchemaChange;
    use orion_types::{PrimitiveType, Value};

    fn build() -> Catalog {
        let mut cat = Catalog::new();
        let company = cat
            .create_class(
                "Company",
                &[],
                vec![AttrSpec::new("location", Domain::Primitive(PrimitiveType::Str))
                    .with_default(Value::str("Austin"))],
            )
            .unwrap();
        let vehicle = cat
            .create_class(
                "Vehicle",
                &[],
                vec![
                    AttrSpec::new("weight", Domain::Primitive(PrimitiveType::Int)),
                    AttrSpec::new("manufacturer", Domain::Class(company)),
                ],
            )
            .unwrap();
        let truck = cat
            .create_class(
                "Truck",
                &[vehicle],
                vec![AttrSpec::new("parts", Domain::set_of_class(vehicle)).composite()],
            )
            .unwrap();
        cat.add_method(vehicle, "display", 0).unwrap();
        cat.add_method(truck, "display", 0).unwrap();
        // A dropped class leaves a None slot worth preserving.
        let doomed = cat.create_class("Doomed", &[], vec![]).unwrap();
        SchemaChange::DropClass { class: doomed }.apply(&mut cat).unwrap();
        cat
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let cat = build();
        let restored = Catalog::restore(&cat.snapshot()).unwrap();
        assert_eq!(restored.version(), cat.version());
        assert_eq!(restored.class_count(), cat.class_count());
        // Names, ids, inheritance, attribute ids all survive.
        let truck = restored.class_id("Truck").unwrap();
        assert_eq!(truck, cat.class_id("Truck").unwrap());
        let old = cat.resolve(truck).unwrap();
        let new = restored.resolve(truck).unwrap();
        assert_eq!(old.attrs.len(), new.attrs.len());
        for (a, b) in old.attrs.iter().zip(new.attrs.iter()) {
            assert_eq!(a, b);
        }
        // Late binding still resolves to the same class.
        assert_eq!(
            restored.resolve_method(truck, "display").unwrap(),
            cat.resolve_method(truck, "display").unwrap()
        );
        // Dropped slots stay dropped (ids are not reused).
        assert!(restored.class_id("Doomed").is_err());
        // Further evolution picks up attribute ids above the old ones.
        let mut restored = restored;
        let vehicle = restored.class_id("Vehicle").unwrap();
        let before: Vec<u32> =
            restored.resolve(vehicle).unwrap().attrs.iter().map(|a| a.id).collect();
        SchemaChange::AddAttribute {
            class: vehicle,
            spec: AttrSpec::new("color", Domain::Primitive(PrimitiveType::Str)),
        }
        .apply(&mut restored)
        .unwrap();
        let new_id = restored.resolve(vehicle).unwrap().attr("color").unwrap().id;
        assert!(before.iter().all(|id| *id < new_id), "attr ids keep advancing");
    }

    #[test]
    fn garbage_and_truncation_rejected() {
        assert!(Catalog::restore(&[]).is_err());
        assert!(Catalog::restore(&[1, 2, 3, 4, 5, 6, 7, 8]).is_err());
        let cat = build();
        let bytes = cat.snapshot();
        for cut in [4usize, 12, bytes.len() / 2, bytes.len() - 1] {
            assert!(Catalog::restore(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut corrupt = bytes.clone();
        corrupt[0] ^= 0xFF;
        assert!(Catalog::restore(&corrupt).is_err(), "magic check");
    }

    #[test]
    fn every_truncation_and_an_oversized_count_are_storage_errors() {
        let bytes = build().snapshot();
        for cut in 0..bytes.len() {
            let err = Catalog::restore(&bytes[..cut]).expect_err("a cut snapshot must fail");
            assert!(matches!(err, DbError::Storage(_)), "cut {cut}: {err:?}");
        }
        // A bare header claiming u32::MAX classes: refused before any
        // allocation sized by the claim.
        let mut header = bytes[..12].to_vec();
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Catalog::restore(&header), Err(DbError::Storage(_))));
    }
}
