//! Buffer store and the kernel execution context.

use std::sync::{RwLockReadGuard, RwLockWriteGuard};

/// A locked buffer handed to a kernel, read-only or writable according to
/// the declared access mode.
pub enum BufRef<'a> {
    /// Read access.
    R(RwLockReadGuard<'a, Vec<f64>>),
    /// Write or read-write access.
    W(RwLockWriteGuard<'a, Vec<f64>>),
}

/// The context a kernel closure receives: its buffers, in declaration
/// order of the task's accesses. An access is writable exactly when its
/// buffer is held under a write guard.
pub struct TaskCtx<'a> {
    bufs: Vec<BufRef<'a>>,
}

impl<'a> TaskCtx<'a> {
    /// Assemble a context (engine-internal).
    pub(crate) fn new(bufs: Vec<BufRef<'a>>) -> Self {
        Self { bufs }
    }

    /// Take the buffer guards back, still held (engine-internal: the
    /// worker releases them and reuses the vector for its next task).
    pub(crate) fn into_bufs(self) -> Vec<BufRef<'a>> {
        self.bufs
    }

    /// Number of buffers.
    pub fn len(&self) -> usize {
        self.bufs.len()
    }

    /// True when the task has no accesses.
    pub fn is_empty(&self) -> bool {
        self.bufs.is_empty()
    }

    /// Read-only view of access `i` (any mode).
    pub fn r(&self, i: usize) -> &[f64] {
        match &self.bufs[i] {
            BufRef::R(g) => g,
            BufRef::W(g) => g,
        }
    }

    /// Mutable view of access `i`; panics if it was declared read-only —
    /// that would be a data race in disguise.
    pub fn w(&mut self, i: usize) -> &mut [f64] {
        match &mut self.bufs[i] {
            BufRef::W(g) => g,
            BufRef::R(_) => read_only(i),
        }
    }

    /// Two disjoint views: read of `ri`, write of `wi` (common GEMM shape
    /// C += A·B needs reads and a write simultaneously).
    pub fn rw_pair(&mut self, ri: usize, wi: usize) -> (&[f64], &mut [f64]) {
        assert_ne!(ri, wi, "aliasing read/write of the same access");
        let r: *const [f64] = match &self.bufs[ri] {
            BufRef::R(g) => &***g,
            BufRef::W(g) => &***g,
        };
        let w: *mut [f64] = match &mut self.bufs[wi] {
            BufRef::W(g) => &mut ***g,
            BufRef::R(_) => read_only(wi),
        };
        // SAFETY: the indices differ and the guard at `wi` is a write
        // guard, which excludes every other guard on its buffer, so the
        // two slices never overlap; both live as long as `&mut self`.
        unsafe { (&*r, &mut *w) }
    }
}

/// A kernel wrote through a read-only access.
fn read_only(i: usize) -> ! {
    panic!("access {i} was declared Read; writing through it is forbidden")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLock;

    #[test]
    fn read_and_write_views() {
        let a = RwLock::new(vec![1.0, 2.0]);
        let b = RwLock::new(vec![0.0; 2]);
        let mut ctx = TaskCtx::new(vec![
            BufRef::R(a.read().unwrap()),
            BufRef::W(b.write().unwrap()),
        ]);
        assert_eq!(ctx.r(0), &[1.0, 2.0]);
        ctx.w(1)[0] = 7.0;
        drop(ctx);
        assert_eq!(b.read().unwrap()[0], 7.0);
    }

    #[test]
    #[should_panic(expected = "forbidden")]
    fn writing_a_read_access_panics() {
        let a = RwLock::new(vec![1.0]);
        let mut ctx = TaskCtx::new(vec![BufRef::R(a.read().unwrap())]);
        let _ = ctx.w(0);
    }

    #[test]
    fn rw_pair_gives_disjoint_views() {
        let a = RwLock::new(vec![3.0]);
        let c = RwLock::new(vec![10.0]);
        let mut ctx = TaskCtx::new(vec![
            BufRef::R(a.read().unwrap()),
            BufRef::W(c.write().unwrap()),
        ]);
        let (ra, wc) = ctx.rw_pair(0, 1);
        wc[0] += ra[0];
        drop(ctx);
        assert_eq!(c.read().unwrap()[0], 13.0);
    }
}
