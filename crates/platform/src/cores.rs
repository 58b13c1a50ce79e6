//! The worker-core pool: a work-conserving, non-preemptive scheduler.
//!
//! Both compute nodes have 16 cores. Tasks (invocation segments) occupy a
//! core for their full duration — SEUSS OS runs a non-preemptive event
//! model (EbbRT, §7's note on Figure 8) and our Linux model runs function
//! bodies to completion as well. Queued tasks dispatch FIFO as cores free
//! up.

use std::collections::VecDeque;

/// A pool of identical worker cores with a FIFO overflow queue.
pub(crate) struct CorePool<T> {
    free: Vec<u16>,
    queue: VecDeque<T>,
}

impl<T> CorePool<T> {
    /// Creates a pool of `n` cores.
    pub(crate) fn new(n: u16) -> Self {
        CorePool {
            free: (0..n).rev().collect(),
            queue: VecDeque::new(),
        }
    }

    /// Submits a task: returns `Some(core)` if one is free (the caller
    /// starts the task immediately), otherwise queues it.
    pub(crate) fn submit(&mut self, task: T) -> Option<(u16, T)> {
        match self.free.pop() {
            Some(core) => Some((core, task)),
            None => {
                self.queue.push_back(task);
                None
            }
        }
    }

    /// Releases a core; returns the next queued task to run on it, if
    /// any (otherwise the core goes idle).
    pub(crate) fn release(&mut self, core: u16) -> Option<(u16, T)> {
        match self.queue.pop_front() {
            Some(task) => Some((core, task)),
            None => {
                self.free.push(core);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatches_until_full_then_queues() {
        let mut p: CorePool<u32> = CorePool::new(2);
        assert!(p.submit(1).is_some());
        assert!(p.submit(2).is_some());
        assert!(p.submit(3).is_none());
        assert_eq!(p.queue.len(), 1);
        assert_eq!(p.free.len(), 0);
    }

    #[test]
    fn release_hands_core_to_queue_head() {
        let mut p: CorePool<u32> = CorePool::new(1);
        let (c, _) = p.submit(1).unwrap();
        p.submit(2);
        p.submit(3);
        let (c2, t) = p.release(c).unwrap();
        assert_eq!(c2, c);
        assert_eq!(t, 2, "FIFO order");
        let (_, t) = p.release(c2).unwrap();
        assert_eq!(t, 3);
        assert!(p.release(c).is_none());
        assert_eq!(p.free.len(), 1);
    }
}
