//! Runtime values and the host-side object store.
//!
//! Value payloads live in two places, mirroring how a real runtime works
//! against the simulation: *semantics* (property maps, array element
//! vectors) are host-side for speed, while every mutation also writes to a
//! guest-heap backing allocation so the page-level memory traffic is real.

use std::collections::HashMap;
use std::rc::Rc;

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

/// One object of an [`ObjStore`].
#[derive(Clone)]
enum Slot {
    /// Created or written since the store's last [`ObjStore::freeze`]:
    /// inline, and copied with the store.
    Own(ObjData),
    /// Frozen by a capture and shared with every copy of the store made
    /// since; the first write copies this one object back to `Own`.
    Shared(Rc<ObjData>),
}

/// Host-side store of arrays and objects, with guest backing traffic.
#[derive(Clone, Default)]
pub(crate) struct ObjStore {
    objs: Vec<Slot>,
}

impl ObjStore {
    /// Creates an empty store.
    pub(crate) fn new() -> Self {
        ObjStore::default()
    }

    fn obj(&self, id: ObjId) -> &ObjData {
        match &self.objs[id.0 as usize] {
            Slot::Own(data) => data,
            Slot::Shared(data) => data,
        }
    }

    fn obj_mut(&mut self, id: ObjId) -> &mut ObjData {
        let slot = &mut self.objs[id.0 as usize];
        if let Slot::Shared(data) = slot {
            // The first write since a capture copies this object alone.
            *slot = Slot::Own(ObjData::clone(data));
        }
        match slot {
            Slot::Own(data) => data,
            Slot::Shared(_) => unreachable!("a written slot is own"),
        }
    }

    /// Moves every inline object behind an `Rc`, so copies of the store
    /// share it until one of them writes it.
    pub(crate) fn freeze(&mut self) {
        self.objs = std::mem::take(&mut self.objs)
            .into_iter()
            .map(|slot| match slot {
                Slot::Own(data) => Slot::Shared(Rc::new(data)),
                shared => shared,
            })
            .collect();
    }

    /// Objects held inline: those created or written since the last
    /// [`ObjStore::freeze`].
    pub(crate) fn own_count(&self) -> usize {
        self.objs
            .iter()
            .filter(|slot| matches!(slot, Slot::Own(_)))
            .count()
    }

    /// Allocates an empty object.
    pub(crate) fn new_object(
        &mut self,
        heap: &mut BumpHeap,
        backend: &mut dyn HeapBackend,
    ) -> Result<ObjId, HeapError> {
        let backing = heap.alloc(INITIAL_SLOTS * SLOT_BYTES)?;
        backend.write(backing, 8)?;
        self.objs.push(Slot::Own(ObjData::Object {
            props: HashMap::new(),
            backing,
            cap_slots: INITIAL_SLOTS,
        }));
        Ok(ObjId(self.objs.len() as u32 - 1))
    }

    /// Allocates an empty array.
    pub(crate) fn new_array(
        &mut self,
        heap: &mut BumpHeap,
        backend: &mut dyn HeapBackend,
    ) -> Result<ObjId, HeapError> {
        let backing = heap.alloc(INITIAL_SLOTS * SLOT_BYTES)?;
        backend.write(backing, 8)?;
        self.objs.push(Slot::Own(ObjData::Array {
            items: Vec::new(),
            backing,
            cap_slots: INITIAL_SLOTS,
        }));
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
        backend.write(new_backing, *cap_slots * SLOT_BYTES)?;
        *backing = new_backing;
        *cap_slots = new_cap;
        Ok(())
    }

    /// Writes a slot's payload word and its tag word, like a boxed slot.
    fn write_slot(backend: &mut dyn HeapBackend, backing: u64, slot: u64) -> Result<(), HeapError> {
        backend.write(backing + slot * SLOT_BYTES, 8)?;
        backend.write(backing + slot * SLOT_BYTES + 8, 8)
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
        match self.obj_mut(id) {
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
                Self::write_slot(backend, *backing, slot.min(*cap_slots - 1))?;
                props.insert(key.to_string(), value);
                Ok(())
            }
            ObjData::Array { .. } => Err(HeapError::BackendFault),
        }
    }

    /// Gets an object property (`Null` when absent, like JS `undefined`).
    pub(crate) fn get_prop(&self, id: ObjId, key: &str) -> Value {
        match self.obj(id) {
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
        match self.obj_mut(id) {
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
                Self::write_slot(backend, *backing, index)
            }
            ObjData::Object { .. } => Err(HeapError::BackendFault),
        }
    }

    /// Gets an array element (`Null` out of range).
    pub(crate) fn get_index(&self, id: ObjId, index: u64) -> Value {
        match self.obj(id) {
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
        match self.obj(id) {
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
        for idx in 0..self.objs.len() as u32 {
            let (cap, len) = match self.obj(ObjId(idx)) {
                ObjData::Object {
                    props, cap_slots, ..
                } => (*cap_slots, props.len()),
                ObjData::Array {
                    items, cap_slots, ..
                } => (*cap_slots, items.len()),
            };
            let new_backing = heap.alloc(cap * SLOT_BYTES)?;
            for slot in 0..len as u64 {
                Self::write_slot(backend, new_backing, slot)?;
            }
            match self.obj_mut(ObjId(idx)) {
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
        match self.obj(id) {
            ObjData::Object { props, .. } => props.keys().cloned().collect(),
            ObjData::Array { .. } => Vec::new(),
        }
    }

    /// Number of properties on an object (0 for arrays).
    pub(crate) fn prop_count(&self, id: ObjId) -> u64 {
        match self.obj(id) {
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
    fn a_frozen_copy_copies_only_the_objects_it_writes() {
        let (mut b, mut h, mut store) = rig();
        let a = store.new_array(&mut h, &mut b).unwrap();
        let o = store.new_object(&mut h, &mut b).unwrap();
        store.push(&mut h, &mut b, a, Value::Num(1.0)).unwrap();
        assert_eq!(store.own_count(), 2);
        store.freeze();
        assert_eq!(store.own_count(), 0);

        let mut copy = store.clone();
        copy.set_index(&mut h, &mut b, a, 0, Value::Num(2.0))
            .unwrap();
        assert_eq!(copy.own_count(), 1, "only the written array is copied");
        assert_eq!(copy.get_index(a, 0), Value::Num(2.0));
        assert_eq!(store.get_index(a, 0), Value::Num(1.0));
        let (Slot::Shared(ours), Slot::Shared(theirs)) = (&store.objs[1], &copy.objs[1]) else {
            panic!("the unwritten object stays shared");
        };
        assert!(Rc::ptr_eq(ours, theirs));
        assert_eq!(copy.prop_count(o), 0);
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
