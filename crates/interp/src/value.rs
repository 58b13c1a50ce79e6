//! Runtime values and the host-side object store.
//!
//! Value payloads live in two places, mirroring how a real runtime works
//! against the simulation: *semantics* (property maps, array element
//! vectors) are host-side for speed, while every mutation also writes to a
//! guest-heap backing allocation so the page-level memory traffic is real.

use std::collections::HashMap;

use crate::heap::{BumpHeap, HeapBackend, HeapError};

/// Reference to an interned string: guest address + length.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StrRef {
    /// Guest heap address of the bytes.
    pub(crate) addr: u64,
    /// Length in bytes.
    pub(crate) len: u32,
}

/// Index into the [`ObjStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ObjId(pub u32);

/// A miniscript value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// IEEE-754 number (the only numeric type, like JavaScript).
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// Null / undefined.
    Null,
    /// Interned string.
    Str(StrRef),
    /// Array object.
    Array(ObjId),
    /// Plain object.
    Object(ObjId),
    /// User function: (program index, chunk index).
    Function(u32, u32),
    /// Builtin function by table index.
    Builtin(u32),
}

impl Value {
    /// JavaScript-style truthiness.
    pub(crate) fn truthy(self) -> bool {
        match self {
            Value::Num(n) => n != 0.0 && !n.is_nan(),
            Value::Bool(b) => b,
            Value::Null => false,
            Value::Str(s) => s.len > 0,
            Value::Array(_) | Value::Object(_) | Value::Function(..) | Value::Builtin(_) => true,
        }
    }

    /// Human-readable type name for error messages.
    pub(crate) fn type_name(self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Null => "null",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
            Value::Function(..) => "function",
            Value::Builtin(_) => "builtin",
        }
    }
}

/// Bytes each stored property/element costs in guest backing memory.
const SLOT_BYTES: u64 = 16;
/// Initial backing capacity, in slots.
const INITIAL_SLOTS: u64 = 4;

#[derive(Clone)]
enum ObjData {
    Object {
        props: HashMap<String, Value>,
        backing: u64,
        cap_slots: u64,
    },
    Array {
        items: Vec<Value>,
        backing: u64,
        cap_slots: u64,
    },
}

/// Host-side store of arrays and objects, with guest backing traffic.
#[derive(Clone, Default)]
pub(crate) struct ObjStore {
    objs: Vec<ObjData>,
}

impl ObjStore {
    /// Creates an empty store.
    pub(crate) fn new() -> Self {
        ObjStore::default()
    }

    /// Allocates an empty object.
    pub(crate) fn new_object(
        &mut self,
        heap: &mut BumpHeap,
        backend: &mut dyn HeapBackend,
    ) -> Result<ObjId, HeapError> {
        let backing = heap.alloc(INITIAL_SLOTS * SLOT_BYTES)?;
        backend.write(backing, &0u64.to_le_bytes())?;
        self.objs.push(ObjData::Object {
            props: HashMap::new(),
            backing,
            cap_slots: INITIAL_SLOTS,
        });
        Ok(ObjId(self.objs.len() as u32 - 1))
    }

    /// Allocates an empty array.
    pub(crate) fn new_array(
        &mut self,
        heap: &mut BumpHeap,
        backend: &mut dyn HeapBackend,
    ) -> Result<ObjId, HeapError> {
        let backing = heap.alloc(INITIAL_SLOTS * SLOT_BYTES)?;
        backend.write(backing, &0u64.to_le_bytes())?;
        self.objs.push(ObjData::Array {
            items: Vec::new(),
            backing,
            cap_slots: INITIAL_SLOTS,
        });
        Ok(ObjId(self.objs.len() as u32 - 1))
    }

    fn grow_if_needed(
        heap: &mut BumpHeap,
        backend: &mut dyn HeapBackend,
        backing: &mut u64,
        cap_slots: &mut u64,
        needed_slots: u64,
    ) -> Result<(), HeapError> {
        if needed_slots <= *cap_slots {
            return Ok(());
        }
        let mut new_cap = *cap_slots * 2;
        while new_cap < needed_slots {
            new_cap *= 2;
        }
        // A real runtime memcpys the old slots into the new backing; model
        // the writes.
        let new_backing = heap.alloc(new_cap * SLOT_BYTES)?;
        let copy = vec![0u8; (*cap_slots * SLOT_BYTES) as usize];
        backend.write(new_backing, &copy)?;
        *backing = new_backing;
        *cap_slots = new_cap;
        Ok(())
    }

    fn write_slot(
        backend: &mut dyn HeapBackend,
        backing: u64,
        slot: u64,
        value: Value,
    ) -> Result<(), HeapError> {
        // A tag word and a payload word, like a boxed slot.
        let payload: u64 = match value {
            Value::Num(n) => n.to_bits(),
            Value::Bool(b) => b as u64,
            Value::Null => 0,
            Value::Str(s) => s.addr,
            Value::Array(o) | Value::Object(o) => o.0 as u64,
            Value::Function(p, c) => ((p as u64) << 32) | c as u64,
            Value::Builtin(i) => i as u64,
        };
        backend.write(backing + slot * SLOT_BYTES, &payload.to_le_bytes())?;
        backend.write(backing + slot * SLOT_BYTES + 8, &1u64.to_le_bytes())
    }

    /// Sets an object property.
    pub(crate) fn set_prop(
        &mut self,
        heap: &mut BumpHeap,
        backend: &mut dyn HeapBackend,
        id: ObjId,
        key: &str,
        value: Value,
    ) -> Result<(), HeapError> {
        match &mut self.objs[id.0 as usize] {
            ObjData::Object {
                props,
                backing,
                cap_slots,
            } => {
                let is_new = !props.contains_key(key);
                let slot = if is_new { props.len() as u64 } else { 0 };
                if is_new {
                    Self::grow_if_needed(heap, backend, backing, cap_slots, slot + 1)?;
                }
                Self::write_slot(backend, *backing, slot.min(*cap_slots - 1), value)?;
                props.insert(key.to_string(), value);
                Ok(())
            }
            ObjData::Array { .. } => Err(HeapError::BackendFault),
        }
    }

    /// Gets an object property (`Null` when absent, like JS `undefined`).
    pub(crate) fn get_prop(&self, id: ObjId, key: &str) -> Value {
        match &self.objs[id.0 as usize] {
            ObjData::Object { props, .. } => props.get(key).copied().unwrap_or(Value::Null),
            ObjData::Array { items, .. } => {
                if key == "length" {
                    Value::Num(items.len() as f64)
                } else {
                    Value::Null
                }
            }
        }
    }

    /// Sets an array element, extending with nulls if needed.
    pub(crate) fn set_index(
        &mut self,
        heap: &mut BumpHeap,
        backend: &mut dyn HeapBackend,
        id: ObjId,
        index: u64,
        value: Value,
    ) -> Result<(), HeapError> {
        match &mut self.objs[id.0 as usize] {
            ObjData::Array {
                items,
                backing,
                cap_slots,
            } => {
                Self::grow_if_needed(heap, backend, backing, cap_slots, index + 1)?;
                if items.len() as u64 <= index {
                    items.resize(index as usize + 1, Value::Null);
                }
                items[index as usize] = value;
                Self::write_slot(backend, *backing, index, value)
            }
            ObjData::Object { .. } => Err(HeapError::BackendFault),
        }
    }

    /// Gets an array element (`Null` out of range).
    pub(crate) fn get_index(&self, id: ObjId, index: u64) -> Value {
        match &self.objs[id.0 as usize] {
            ObjData::Array { items, .. } => {
                items.get(index as usize).copied().unwrap_or(Value::Null)
            }
            ObjData::Object { .. } => Value::Null,
        }
    }

    /// Appends to an array, returning the new length.
    pub(crate) fn push(
        &mut self,
        heap: &mut BumpHeap,
        backend: &mut dyn HeapBackend,
        id: ObjId,
        value: Value,
    ) -> Result<u64, HeapError> {
        let len = self.array_len(id);
        self.set_index(heap, backend, id, len, value)?;
        Ok(len + 1)
    }

    /// Length of an array (0 for non-arrays).
    pub(crate) fn array_len(&self, id: ObjId) -> u64 {
        match &self.objs[id.0 as usize] {
            ObjData::Array { items, .. } => items.len() as u64,
            ObjData::Object { .. } => 0,
        }
    }

    /// Relocates every object's backing allocation to fresh heap
    /// addresses, rewriting all slots — the copy phase of a moving
    /// (semispace) garbage collector. Returns `(objects moved, bytes
    /// rewritten)`.
    ///
    /// This exists to study the paper's stated future work ("the runtime
    /// effects of COW on a complex function workload"): a moving GC
    /// rewrites pages wholesale, which after a snapshot translates into
    /// COW breaks and bloated function-snapshot diffs.
    pub(crate) fn compact(
        &mut self,
        heap: &mut BumpHeap,
        backend: &mut dyn HeapBackend,
    ) -> Result<(u64, u64), HeapError> {
        let mut moved = 0u64;
        let mut bytes = 0u64;
        for idx in 0..self.objs.len() {
            let (cap, values): (u64, Vec<Value>) = match &self.objs[idx] {
                ObjData::Object {
                    props, cap_slots, ..
                } => (*cap_slots, props.values().copied().collect()),
                ObjData::Array {
                    items, cap_slots, ..
                } => (*cap_slots, items.clone()),
            };
            let new_backing = heap.alloc(cap * SLOT_BYTES)?;
            for (slot, v) in values.iter().enumerate() {
                Self::write_slot(backend, new_backing, slot as u64, *v)?;
            }
            match &mut self.objs[idx] {
                ObjData::Object { backing, .. } | ObjData::Array { backing, .. } => {
                    *backing = new_backing;
                }
            }
            moved += 1;
            bytes += cap * SLOT_BYTES;
        }
        Ok((moved, bytes))
    }

    /// Property names of an object (empty for arrays), unordered.
    pub(crate) fn prop_keys(&self, id: ObjId) -> Vec<String> {
        match &self.objs[id.0 as usize] {
            ObjData::Object { props, .. } => props.keys().cloned().collect(),
            ObjData::Array { .. } => Vec::new(),
        }
    }

    /// Number of properties on an object (0 for arrays).
    pub(crate) fn prop_count(&self, id: ObjId) -> u64 {
        match &self.objs[id.0 as usize] {
            ObjData::Object { props, .. } => props.len() as u64,
            ObjData::Array { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HostHeap;

    fn rig() -> (HostHeap, BumpHeap, ObjStore) {
        let backend = HostHeap::with_capacity(1 << 20);
        let heap = BumpHeap::new(0x1000, 1 << 20);
        (backend, heap, ObjStore::new())
    }

    #[test]
    fn truthiness_follows_js() {
        assert!(!Value::Num(0.0).truthy());
        assert!(Value::Num(1.0).truthy());
        assert!(!Value::Num(f64::NAN).truthy());
        assert!(!Value::Null.truthy());
        assert!(Value::Bool(true).truthy());
        assert!(!Value::Str(StrRef { addr: 0, len: 0 }).truthy());
        assert!(Value::Str(StrRef { addr: 0, len: 1 }).truthy());
    }

    #[test]
    fn object_props_round_trip() {
        let (mut b, mut h, mut store) = rig();
        let o = store.new_object(&mut h, &mut b).unwrap();
        assert_eq!(store.get_prop(o, "x"), Value::Null);
        store
            .set_prop(&mut h, &mut b, o, "x", Value::Num(5.0))
            .unwrap();
        assert_eq!(store.get_prop(o, "x"), Value::Num(5.0));
        store
            .set_prop(&mut h, &mut b, o, "x", Value::Num(6.0))
            .unwrap();
        assert_eq!(store.get_prop(o, "x"), Value::Num(6.0));
        assert_eq!(store.prop_count(o), 1);
    }

    #[test]
    fn array_elements_and_length() {
        let (mut b, mut h, mut store) = rig();
        let a = store.new_array(&mut h, &mut b).unwrap();
        store.push(&mut h, &mut b, a, Value::Num(1.0)).unwrap();
        store.push(&mut h, &mut b, a, Value::Num(2.0)).unwrap();
        assert_eq!(store.array_len(a), 2);
        assert_eq!(store.get_index(a, 1), Value::Num(2.0));
        assert_eq!(store.get_index(a, 9), Value::Null);
        assert_eq!(store.get_prop(a, "length"), Value::Num(2.0));
    }

    #[test]
    fn sparse_set_extends_with_nulls() {
        let (mut b, mut h, mut store) = rig();
        let a = store.new_array(&mut h, &mut b).unwrap();
        store
            .set_index(&mut h, &mut b, a, 5, Value::Bool(true))
            .unwrap();
        assert_eq!(store.array_len(a), 6);
        assert_eq!(store.get_index(a, 3), Value::Null);
    }

    #[test]
    fn growth_allocates_backing() {
        let (mut b, mut h, mut store) = rig();
        let a = store.new_array(&mut h, &mut b).unwrap();
        let before = h.alloc(0).unwrap();
        for i in 0..100 {
            store.push(&mut h, &mut b, a, Value::Num(i as f64)).unwrap();
        }
        assert!(h.alloc(0).unwrap() > before, "backing regrown");
    }

    #[test]
    fn type_confusion_is_an_error() {
        let (mut b, mut h, mut store) = rig();
        let o = store.new_object(&mut h, &mut b).unwrap();
        assert!(store.set_index(&mut h, &mut b, o, 0, Value::Null).is_err());
        let a = store.new_array(&mut h, &mut b).unwrap();
        assert!(store.set_prop(&mut h, &mut b, a, "k", Value::Null).is_err());
    }
}
