//! Refcounted page-table nodes and their arena.
//!
//! Each [`TableNode`] models one 4 KiB page-table page: 512 packed
//! [`Entry`]s plus the backing [`FrameId`] it occupies in physical memory
//! and a reference count. Reference counts implement the lazy shallow copy
//! that SEUSS deploy/capture relies on: many address spaces point at the
//! same lower-level tables until someone writes beneath them.

use seuss_mem::addr::TABLE_ENTRIES;
use seuss_mem::{FrameId, FrameKind, MemError, PhysMemory};

use crate::entry::Entry;

/// Identifier of a page-table node in the [`TableStore`] arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TableId(u32);

impl TableId {
    /// Raw arena index.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds a table id from a raw index (used by packed entries).
    pub fn from_index(index: u32) -> TableId {
        TableId(index)
    }
}

/// One page-table page.
pub struct TableNode {
    /// Table level: 4 (root) down to 1 (leaf tables mapping data pages).
    pub level: u8,
    /// Number of address spaces / parent tables / snapshots referencing us.
    pub refcount: u32,
    /// The physical frame this table occupies.
    pub frame: FrameId,
    /// The 512 entries.
    pub entries: Box<[Entry; TABLE_ENTRIES]>,
}

/// Arena of live page-table nodes.
///
/// Slots are recycled through a free list; a slot holding `None` is free.
#[derive(Default)]
pub struct TableStore {
    nodes: Vec<Option<TableNode>>,
    free: Vec<u32>,
}

impl TableStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TableStore::default()
    }

    /// Number of live tables.
    pub fn live_tables(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Allocates a fresh, empty table at `level`, backed by a new
    /// page-table frame from `mem`, with refcount 1.
    pub fn alloc(&mut self, mem: &mut PhysMemory, level: u8) -> Result<TableId, MemError> {
        let frame = mem.alloc(FrameKind::PageTable)?;
        let node = TableNode {
            level,
            refcount: 1,
            frame,
            entries: Box::new([Entry::EMPTY; TABLE_ENTRIES]),
        };
        Ok(self.insert(node))
    }

    /// Clones `src` into a fresh table (same level, entries copied verbatim),
    /// backed by a new frame, refcount 1. Child reference counts are *not*
    /// adjusted here; `clone_referencing` adjusts them.
    pub fn clone_node(&mut self, mem: &mut PhysMemory, src: TableId) -> Result<TableId, MemError> {
        let node = self.copy_node(mem, src)?;
        Ok(self.insert(node))
    }

    /// [`Self::clone_node`] plus the copy's own references: one more on
    /// every child table and every mapped frame it points at. This is
    /// the whole of a shallow clone or a table split.
    pub(crate) fn clone_referencing(
        &mut self,
        mem: &mut PhysMemory,
        src: TableId,
    ) -> Result<TableId, MemError> {
        let node = self.copy_node(mem, src)?;
        for entry in node.entries.iter().filter(|e| e.is_present()) {
            if entry.is_table() {
                self.inc_ref(entry.next_table());
            } else {
                mem.inc_ref(entry.frame());
            }
        }
        Ok(self.insert(node))
    }

    /// A detached copy of `src` on a new page-table frame, refcount 1.
    fn copy_node(&self, mem: &mut PhysMemory, src: TableId) -> Result<TableNode, MemError> {
        let frame = mem.alloc(FrameKind::PageTable)?;
        let n = self.node(src);
        Ok(TableNode {
            level: n.level,
            refcount: 1,
            frame,
            entries: n.entries.clone(),
        })
    }

    fn insert(&mut self, node: TableNode) -> TableId {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = Some(node);
                TableId(idx)
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(Some(node));
                TableId(idx)
            }
        }
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if the table has been freed.
    pub fn node(&self, id: TableId) -> &TableNode {
        self.nodes[id.0 as usize]
            .as_ref()
            .expect("use of freed page table")
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if the table has been freed.
    pub fn node_mut(&mut self, id: TableId) -> &mut TableNode {
        self.nodes[id.0 as usize]
            .as_mut()
            .expect("use of freed page table")
    }

    /// Increments a table's reference count.
    pub fn inc_ref(&mut self, id: TableId) {
        self.node_mut(id).refcount += 1;
    }

    /// Decrements a table's reference count. When it hits zero the node is
    /// removed from the arena, its backing frame is released, and the node
    /// is returned so the caller can release children recursively.
    pub fn dec_ref(&mut self, mem: &mut PhysMemory, id: TableId) -> Option<TableNode> {
        let node = self.node_mut(id);
        assert!(node.refcount > 0, "table refcount underflow");
        node.refcount -= 1;
        if node.refcount == 0 {
            let node = self.nodes[id.0 as usize].take().expect("checked above");
            self.free.push(id.0);
            mem.dec_ref(node.frame);
            Some(node)
        } else {
            None
        }
    }

    /// Current refcount of a table.
    pub fn refcount(&self, id: TableId) -> u32 {
        self.node(id).refcount
    }

    /// Whether an id refers to a live table.
    pub fn is_live(&self, id: TableId) -> bool {
        self.nodes
            .get(id.0 as usize)
            .map(|n| n.is_some())
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_consumes_a_page_table_frame() {
        let mut mem = PhysMemory::with_mib(1);
        let mut store = TableStore::new();
        let t = store.alloc(&mut mem, 4).unwrap();
        assert_eq!(mem.stats().page_table_frames, 1);
        assert_eq!(store.node(t).level, 4);
        assert_eq!(store.refcount(t), 1);
        assert_eq!(store.live_tables(), 1);
    }

    #[test]
    fn dec_ref_frees_frame_and_returns_node() {
        let mut mem = PhysMemory::with_mib(1);
        let mut store = TableStore::new();
        let t = store.alloc(&mut mem, 1).unwrap();
        let node = store.dec_ref(&mut mem, t).expect("refcount hit zero");
        assert_eq!(node.level, 1);
        assert_eq!(mem.stats().page_table_frames, 0);
        assert!(!store.is_live(t));
    }

    #[test]
    fn shared_table_survives_one_release() {
        let mut mem = PhysMemory::with_mib(1);
        let mut store = TableStore::new();
        let t = store.alloc(&mut mem, 2).unwrap();
        store.inc_ref(t);
        assert!(store.dec_ref(&mut mem, t).is_none());
        assert!(store.is_live(t));
        assert!(store.dec_ref(&mut mem, t).is_some());
    }

    #[test]
    fn clone_copies_entries_not_refcount() {
        let mut mem = PhysMemory::with_mib(1);
        let mut store = TableStore::new();
        let t = store.alloc(&mut mem, 1).unwrap();
        let f = mem.alloc(FrameKind::Data).unwrap();
        store.node_mut(t).entries[7] = Entry::page(f, crate::EntryFlags::WRITABLE);
        store.inc_ref(t); // refcount 2
        let c = store.clone_node(&mut mem, t).unwrap();
        assert_eq!(store.refcount(c), 1);
        assert_eq!(store.node(c).entries[7].frame(), f);
        assert_eq!(mem.stats().page_table_frames, 2);
    }

    #[test]
    fn slots_are_recycled() {
        let mut mem = PhysMemory::with_mib(1);
        let mut store = TableStore::new();
        let t = store.alloc(&mut mem, 1).unwrap();
        store.dec_ref(&mut mem, t);
        let u = store.alloc(&mut mem, 3).unwrap();
        assert_eq!(t.index(), u.index());
        assert_eq!(store.live_tables(), 1);
    }
}
