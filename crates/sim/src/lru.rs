//! An O(1) recency order: the one LRU structure behind every node cache.
//!
//! [`Recency`] is a doubly linked list threaded through a slab of slots by
//! index. `push_back` returns a [`Handle`] the caller stores next to its
//! entry; `touch` moves an entry to the hot end, `remove` unlinks it, and
//! walking from the cold end visits entries least-recently-used first.
//! Every operation is O(1), and vacated slots are recycled, so a warm list
//! never allocates.
//!
//! Order is exactly "order of the last `push_back`/`touch`", which is what
//! a unique monotone use clock sorts by — ties cannot arise.
//!
//! ```
//! use simcore::Recency;
//!
//! let mut lru = Recency::new();
//! let a = lru.push_back('a');
//! let _b = lru.push_back('b');
//! lru.touch(a);
//! assert_eq!(lru.iter().map(|(_, k)| k).collect::<String>(), "ba");
//! assert_eq!(lru.pop_front(), Some('b'));
//! ```

/// A slot in a [`Recency`] list, valid until that entry is removed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Handle(u32);

const NIL: u32 = u32::MAX;

struct Slot<K> {
    /// `None` while the slot is on the free chain.
    key: Option<K>,
    prev: u32,
    /// Next-hotter entry; on the free chain, the next vacant slot.
    next: u32,
}

/// Least-recently-used order over keys, cold end first.
pub struct Recency<K> {
    slots: Vec<Slot<K>>,
    head: u32,
    tail: u32,
    free: u32,
    len: usize,
}

impl<K> Default for Recency<K> {
    fn default() -> Self {
        Recency {
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            len: 0,
        }
    }
}

impl<K: Copy> Recency<K> {
    /// An empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `key` at the hot end.
    pub fn push_back(&mut self, key: K) -> Handle {
        let slot = Slot {
            key: Some(key),
            prev: self.tail,
            next: NIL,
        };
        let i = if self.free == NIL {
            self.slots.push(slot);
            u32::try_from(self.slots.len() - 1).expect("recency list exceeds u32 slots")
        } else {
            let i = self.free;
            self.free = self.slots[i as usize].next;
            self.slots[i as usize] = slot;
            i
        };
        self.link_tail(i);
        self.len += 1;
        Handle(i)
    }

    /// Unlinks the entry at `h`, returning its key; `None` if `h` is
    /// vacant.
    pub fn remove(&mut self, h: Handle) -> Option<K> {
        let key = self.slots.get_mut(h.0 as usize)?.key.take()?;
        self.unlink(h.0);
        self.slots[h.0 as usize].next = self.free;
        self.free = h.0;
        self.len -= 1;
        Some(key)
    }

    /// Moves the entry at `h` to the hot end (a use).
    pub fn touch(&mut self, h: Handle) {
        if self.get(h).is_none() || self.tail == h.0 {
            return;
        }
        self.unlink(h.0);
        self.slots[h.0 as usize].prev = self.tail;
        self.slots[h.0 as usize].next = NIL;
        self.link_tail(h.0);
    }

    /// The key at `h`, if occupied.
    pub fn get(&self, h: Handle) -> Option<K> {
        self.slots.get(h.0 as usize).and_then(|s| s.key)
    }

    /// The least-recently-used key.
    pub fn front(&self) -> Option<K> {
        self.get(self.front_handle()?)
    }

    /// Removes and returns the least-recently-used key.
    pub fn pop_front(&mut self) -> Option<K> {
        self.remove(self.front_handle()?)
    }

    /// The handle of the least-recently-used entry.
    pub fn front_handle(&self) -> Option<Handle> {
        (self.head != NIL).then_some(Handle(self.head))
    }

    /// The entry used next after `h` (one step toward the hot end). A
    /// cursor for walks that mutate the owner between steps.
    pub fn next_handle(&self, h: Handle) -> Option<Handle> {
        let s = self.slots.get(h.0 as usize)?;
        (s.key.is_some() && s.next != NIL).then_some(Handle(s.next))
    }

    /// `(handle, key)` pairs, least-recently-used first.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, K)> + '_ {
        std::iter::successors(self.front_handle(), |&h| self.next_handle(h))
            .map(|h| (h, self.slots[h.0 as usize].key.expect("linked slot")))
    }

    fn link_tail(&mut self, i: u32) {
        match self.tail {
            NIL => self.head = i,
            t => self.slots[t as usize].next = i,
        }
        self.tail = i;
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(r: &Recency<u32>) -> Vec<u32> {
        r.iter().map(|(_, k)| k).collect()
    }

    #[test]
    fn push_touch_remove_keep_use_order() {
        let mut r = Recency::new();
        let h: Vec<Handle> = (0..4u32).map(|k| r.push_back(k)).collect();
        r.touch(h[0]);
        assert_eq!(keys(&r), [1, 2, 3, 0]);
        assert_eq!(r.remove(h[2]), Some(2));
        assert_eq!(r.remove(h[2]), None, "a vacant handle removes nothing");
        assert_eq!(keys(&r), [1, 3, 0]);
        r.touch(h[0]);
        assert_eq!(keys(&r), [1, 3, 0], "touching the hot end is a no-op");
        assert_eq!(r.front(), Some(1));
        assert_eq!(r.pop_front(), Some(1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn vacated_slots_are_reused() {
        let mut r = Recency::new();
        let a = r.push_back(1u32);
        r.push_back(2);
        r.remove(a);
        let c = r.push_back(3);
        assert_eq!(c, a, "the freed slot comes back first");
        assert_eq!(r.slots.len(), 2);
        assert_eq!(keys(&r), [2, 3]);
    }

    #[test]
    fn draining_empties_both_ends() {
        let mut r = Recency::new();
        for k in 0..3u32 {
            r.push_back(k);
        }
        while r.pop_front().is_some() {}
        assert!(r.is_empty());
        assert_eq!(r.front_handle(), None);
        r.push_back(9);
        assert_eq!(keys(&r), [9]);
    }
}
