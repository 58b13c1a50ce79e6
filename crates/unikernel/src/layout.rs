//! The flat address-space layout of a Rumprun-style UC.
//!
//! One address space holds everything — unikernel kernel text, the
//! interpreter binary, initialized data, the managed heap, stacks, and IO
//! buffers. The regions below mirror a Rumprun guest linked with a large
//! runtime; their bases are stable constants so snapshot resume points and
//! the interpreter's bump heap survive capture/deploy unchanged.

use seuss_mem::VirtAddr;
use seuss_paging::{Region, RegionKind};

/// Region base addresses and spans for a UC.
#[derive(Clone, Copy, Debug)]
pub struct Layout {
    /// Read-only text/rodata (rumprun + libc + interpreter binary).
    pub(crate) text_base: VirtAddr,
    /// Text span in pages.
    pub(crate) text_pages: u64,
    /// Writable initialized data + bss.
    pub(crate) data_base: VirtAddr,
    /// Data span in pages.
    pub(crate) data_pages: u64,
    /// Managed (interpreter) heap, demand-zero.
    pub(crate) heap_base: VirtAddr,
    /// Heap span in pages.
    pub(crate) heap_pages: u64,
    /// IO buffers (virtio rings, socket buffers), demand-zero.
    pub(crate) io_base: VirtAddr,
    /// IO span in pages.
    pub(crate) io_pages: u64,
    /// Stacks, demand-zero.
    pub(crate) stack_base: VirtAddr,
    /// Stack span in pages.
    pub(crate) stack_pages: u64,
}

impl Layout {
    /// Layout sized for a Node.js-class runtime.
    pub fn nodejs() -> Self {
        Layout {
            text_base: VirtAddr::new(0x0040_0000),
            text_pages: 11_264, // 44 MiB of text/rodata
            data_base: VirtAddr::new(0x0800_0000),
            data_pages: 32_768, // 128 MiB window for data+bss
            heap_base: VirtAddr::new(0x1_0000_0000),
            heap_pages: 262_144, // 1 GiB heap window
            io_base: VirtAddr::new(0x2_0000_0000),
            io_pages: 8_192, // 32 MiB of IO buffers
            stack_base: VirtAddr::new(0x7F00_0000_0000),
            stack_pages: 2_048, // 8 MiB of stacks
        }
    }

    /// The resume-point instruction address used for the driver-listening
    /// snapshot trigger (a fixed address inside text).
    pub(crate) fn driver_listen_rip(&self) -> VirtAddr {
        self.text_base.offset(0x2000)
    }

    /// Resume point after function import+compile (function snapshots).
    pub(crate) fn post_import_rip(&self) -> VirtAddr {
        self.text_base.offset(0x3000)
    }

    /// Initial stack pointer (top of the stack region).
    pub(crate) fn initial_rsp(&self) -> VirtAddr {
        VirtAddr::new(self.stack_base.as_u64() + self.stack_pages * 4096 - 16)
    }

    /// The five regions, ready to install into an address space.
    pub(crate) fn regions(&self) -> Vec<Region> {
        vec![
            Region {
                start: self.text_base,
                pages: self.text_pages,
                kind: RegionKind::Text,
                writable: false,
                demand_zero: false,
            },
            Region {
                start: self.data_base,
                pages: self.data_pages,
                kind: RegionKind::Data,
                writable: true,
                demand_zero: true,
            },
            Region {
                start: self.heap_base,
                pages: self.heap_pages,
                kind: RegionKind::Heap,
                writable: true,
                demand_zero: true,
            },
            Region {
                start: self.io_base,
                pages: self.io_pages,
                kind: RegionKind::Io,
                writable: true,
                demand_zero: true,
            },
            Region {
                start: self.stack_base,
                pages: self.stack_pages,
                kind: RegionKind::Stack,
                writable: true,
                demand_zero: true,
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_do_not_overlap() {
        // AddressSpace::add_region would panic on overlap; exercise it.
        let mut space = seuss_paging::AddressSpace::from_root(seuss_paging::TableId::from_index(0));
        for r in Layout::nodejs().regions() {
            space.add_region(r);
        }
        assert_eq!(space.regions().len(), 5);
    }

    #[test]
    fn text_is_read_only() {
        let regions = Layout::nodejs().regions();
        let text = &regions[0];
        assert!(!text.writable);
        assert!(!text.demand_zero);
    }

    #[test]
    fn resume_points_fall_in_text() {
        let l = Layout::nodejs();
        let text_end = l.text_base.as_u64() + l.text_pages * 4096;
        for rip in [l.driver_listen_rip(), l.post_import_rip()] {
            assert!(rip.as_u64() >= l.text_base.as_u64());
            assert!(rip.as_u64() < text_end);
        }
    }

    #[test]
    fn stack_pointer_inside_stack() {
        let l = Layout::nodejs();
        let rsp = l.initial_rsp().as_u64();
        assert!(rsp > l.stack_base.as_u64());
        assert!(rsp < l.stack_base.as_u64() + l.stack_pages * 4096);
    }

    #[test]
    fn nodejs_text_is_44_mib() {
        let l = Layout::nodejs();
        assert_eq!(l.text_pages * 4096, 44 * 1024 * 1024);
    }
}
