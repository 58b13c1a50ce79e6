//! Packed 64-bit page-table entries, mirroring the x86_64 PTE layout.
//!
//! Low bits carry hardware-style flags (present / writable / user /
//! accessed / dirty at their real x86 positions), two of the
//! software-available bits mark COW pages and next-level-table pointers,
//! and bits 12..52 carry the target frame or table index.

use core::fmt;

use seuss_mem::FrameId;

use crate::table::TableId;

/// Flag bits of an [`Entry`], at their x86_64 positions where one exists.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct EntryFlags(u64);

impl EntryFlags {
    /// Mapping is present.
    pub(crate) const PRESENT: EntryFlags = EntryFlags(1 << 0);
    /// Mapping permits writes.
    pub(crate) const WRITABLE: EntryFlags = EntryFlags(1 << 1);
    /// Mapping is accessible from user mode (UCs run in ring 3).
    pub const USER: EntryFlags = EntryFlags(1 << 2);
    /// Hardware-set on any access.
    pub(crate) const ACCESSED: EntryFlags = EntryFlags(1 << 5);
    /// Hardware-set on write; the capture mechanism scans these.
    pub(crate) const DIRTY: EntryFlags = EntryFlags(1 << 6);
    /// Software bit: write-protected only because the frame is shared.
    pub(crate) const COW: EntryFlags = EntryFlags(1 << 9);
    /// Software bit: the entry points at a next-level table, not a page.
    pub(crate) const TABLE: EntryFlags = EntryFlags(1 << 10);
    /// Software bit: the page lives on a block device, not in a frame.
    ///
    /// A swapped entry is *non-present* (PRESENT clear) — hardware would
    /// fault on it — and its target bits carry a device block number
    /// instead of a frame index. The remaining flag bits preserve the
    /// page's pre-demotion permissions so a swap-in can restore them.
    pub const SWAPPED: EntryFlags = EntryFlags(1 << 11);

    /// Union of two flag sets.
    pub(crate) const fn union(self, other: EntryFlags) -> EntryFlags {
        EntryFlags(self.0 | other.0)
    }

    /// Whether all bits of `other` are set in `self`.
    pub(crate) const fn contains(self, other: EntryFlags) -> bool {
        (self.0 & other.0) == other.0
    }

    /// `self` with the bits of `other` removed.
    pub(crate) const fn without(self, other: EntryFlags) -> EntryFlags {
        EntryFlags(self.0 & !other.0)
    }

    /// Raw bit value.
    pub(crate) const fn bits(self) -> u64 {
        self.0
    }
}

impl core::ops::BitOr for EntryFlags {
    type Output = EntryFlags;
    fn bitor(self, rhs: EntryFlags) -> EntryFlags {
        self.union(rhs)
    }
}

impl fmt::Debug for EntryFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        for (bit, name) in [
            (EntryFlags::PRESENT, "P"),
            (EntryFlags::WRITABLE, "W"),
            (EntryFlags::USER, "U"),
            (EntryFlags::ACCESSED, "A"),
            (EntryFlags::DIRTY, "D"),
            (EntryFlags::COW, "C"),
            (EntryFlags::TABLE, "T"),
            (EntryFlags::SWAPPED, "S"),
        ] {
            if self.contains(bit) {
                parts.push(name);
            }
        }
        write!(f, "[{}]", parts.join(""))
    }
}

const FLAGS_MASK: u64 = 0xFFF | (1 << 9) | (1 << 10);
const TARGET_SHIFT: u32 = 12;

/// One slot of a page table: either empty, a pointer to a next-level
/// table, or a leaf mapping of a data frame.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Entry(u64);

impl Entry {
    /// The empty (non-present) entry.
    pub(crate) const EMPTY: Entry = Entry(0);

    /// Builds a leaf entry mapping `frame` with `flags` (PRESENT implied).
    pub(crate) fn page(frame: FrameId, flags: EntryFlags) -> Entry {
        let flags = flags.union(EntryFlags::PRESENT).without(EntryFlags::TABLE);
        Entry(((frame.index() as u64) << TARGET_SHIFT) | flags.bits())
    }

    /// Builds a table entry pointing at `table` (PRESENT | TABLE implied).
    ///
    /// Table entries are created writable/user so that leaf flags alone
    /// decide permissions, like a typical x86_64 kernel does.
    pub(crate) fn table(table: TableId) -> Entry {
        let flags =
            EntryFlags::PRESENT | EntryFlags::WRITABLE | EntryFlags::USER | EntryFlags::TABLE;
        Entry(((table.index() as u64) << TARGET_SHIFT) | flags.bits())
    }

    /// Builds a swapped-out leaf entry: the page lives in device block
    /// `block`, and `flags` records the pre-demotion flag
    /// set so promotion can restore it (PRESENT removed, SWAPPED added).
    pub(crate) fn swapped(block: u64, flags: EntryFlags) -> Entry {
        let flags = flags
            .union(EntryFlags::SWAPPED)
            .without(EntryFlags::PRESENT)
            .without(EntryFlags::TABLE);
        Entry((block << TARGET_SHIFT) | flags.bits())
    }

    /// Whether the entry maps anything.
    pub(crate) fn is_present(self) -> bool {
        self.flags().contains(EntryFlags::PRESENT)
    }

    /// Whether the entry is a swapped-out (non-present, on-device) page.
    pub(crate) fn is_swapped(self) -> bool {
        !self.is_present() && self.flags().contains(EntryFlags::SWAPPED)
    }

    /// The device block of a swapped entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not swapped.
    pub(crate) fn swap_block(self) -> u64 {
        assert!(self.is_swapped(), "entry is not swapped");
        self.0 >> TARGET_SHIFT
    }

    /// The preserved pre-demotion flags of a swapped entry (SWAPPED
    /// removed), ready to be handed back to [`Entry::page`].
    ///
    /// # Panics
    ///
    /// Panics if the entry is not swapped.
    pub(crate) fn swap_flags(self) -> EntryFlags {
        assert!(self.is_swapped(), "entry is not swapped");
        self.flags().without(EntryFlags::SWAPPED)
    }

    /// Whether the entry points at a next-level table.
    pub fn is_table(self) -> bool {
        self.is_present() && self.flags().contains(EntryFlags::TABLE)
    }

    /// Whether the entry is a leaf page mapping.
    pub fn is_page(self) -> bool {
        self.is_present() && !self.flags().contains(EntryFlags::TABLE)
    }

    /// The flag set of this entry.
    pub(crate) fn flags(self) -> EntryFlags {
        EntryFlags(self.0 & FLAGS_MASK)
    }

    /// Replaces the flag set, keeping the target.
    pub(crate) fn with_flags(self, flags: EntryFlags) -> Entry {
        Entry((self.0 & !FLAGS_MASK) | flags.bits())
    }

    /// The mapped frame of a leaf entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not a page mapping.
    pub fn frame(self) -> FrameId {
        assert!(self.is_page(), "entry is not a page mapping");
        FrameId::from_index((self.0 >> TARGET_SHIFT) as u32)
    }

    /// The next-level table of a table entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not a table pointer.
    pub fn next_table(self) -> TableId {
        assert!(self.is_table(), "entry is not a table pointer");
        TableId::from_index((self.0 >> TARGET_SHIFT) as u32)
    }
}

impl fmt::Debug for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_swapped() {
            write!(
                f,
                "Entry(swapped B#{} {:?})",
                self.0 >> TARGET_SHIFT,
                self.flags()
            )
        } else if !self.is_present() {
            write!(f, "Entry(empty)")
        } else if self.is_table() {
            write!(f, "Entry(table {:?})", (self.0 >> TARGET_SHIFT) as u32)
        } else {
            write!(
                f,
                "Entry(page F#{} {:?})",
                (self.0 >> TARGET_SHIFT) as u32,
                self.flags()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_entry_is_absent() {
        assert!(!Entry::EMPTY.is_present());
        assert!(!Entry::EMPTY.is_table());
        assert!(!Entry::EMPTY.is_page());
    }

    #[test]
    fn page_entry_round_trip() {
        let f = FrameId::from_index(12345);
        let e = Entry::page(f, EntryFlags::WRITABLE | EntryFlags::USER);
        assert!(e.is_page());
        assert!(!e.is_table());
        assert_eq!(e.frame(), f);
        assert!(e.flags().contains(EntryFlags::PRESENT));
        assert!(e.flags().contains(EntryFlags::WRITABLE));
        assert!(!e.flags().contains(EntryFlags::DIRTY));
    }

    #[test]
    fn table_entry_round_trip() {
        let t = TableId::from_index(777);
        let e = Entry::table(t);
        assert!(e.is_table());
        assert_eq!(e.next_table(), t);
    }

    #[test]
    fn flag_mutation_keeps_target() {
        let f = FrameId::from_index(42);
        let e = Entry::page(f, EntryFlags::WRITABLE);
        let e2 = e.with_flags(e.flags() | EntryFlags::DIRTY | EntryFlags::ACCESSED);
        assert_eq!(e2.frame(), f);
        assert!(e2.flags().contains(EntryFlags::DIRTY));
    }

    #[test]
    fn cow_flag_independent_of_writable() {
        let f = FrameId::from_index(1);
        let e = Entry::page(f, EntryFlags::COW | EntryFlags::USER);
        assert!(e.flags().contains(EntryFlags::COW));
        assert!(!e.flags().contains(EntryFlags::WRITABLE));
    }

    #[test]
    #[should_panic(expected = "not a page mapping")]
    fn frame_of_table_entry_panics() {
        Entry::table(TableId::from_index(1)).frame();
    }

    #[test]
    fn swapped_entry_round_trip() {
        let orig = EntryFlags::WRITABLE | EntryFlags::USER | EntryFlags::DIRTY;
        let e = Entry::swapped(9001, orig | EntryFlags::PRESENT);
        assert!(e.is_swapped());
        assert!(!e.is_present());
        assert!(!e.is_page());
        assert!(!e.is_table());
        assert_eq!(e.swap_block(), 9001);
        assert_eq!(e.swap_flags(), orig);
    }

    #[test]
    #[should_panic(expected = "not swapped")]
    fn swap_block_of_page_entry_panics() {
        Entry::page(FrameId::from_index(1), EntryFlags::USER).swap_block();
    }

    #[test]
    fn flags_debug_format() {
        let flags = EntryFlags::PRESENT | EntryFlags::DIRTY;
        assert_eq!(format!("{flags:?}"), "[PD]");
    }
}
