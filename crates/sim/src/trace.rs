//! The micro-op trace format kernels are expressed in.
//!
//! Applications compile each GPU kernel into one micro-op stream per
//! thread. The simulator executes threads in 32-lane warps: at *slot*
//! `k`, a warp executes op `k` of every lane that still has ops left
//! (shorter lanes simply become inactive — this models loop-trip-count
//! divergence, the dominant divergence in vertex-centric graph kernels).

use crate::params::ParamsError;

/// One micro-operation of a GPU thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// Non-atomic load of one 32-bit word. Loads are *blocking*: graph
    /// kernels consume a load's value immediately (pointer chasing), so
    /// the warp waits for completion before its next slot.
    Load {
        /// Byte address.
        addr: u64,
    },
    /// Non-atomic store of one 32-bit word. Stores retire through the
    /// store buffer (GPU coherence) or ownership registration (DeNovo)
    /// and do not block the warp unless back-pressure applies.
    Store {
        /// Byte address.
        addr: u64,
    },
    /// Atomic read-modify-write on one 32-bit word. Ordering and overlap
    /// are governed by the configured consistency model, except that
    /// *value-returning* atomics always block the warp (their result
    /// feeds control flow, as in Connected Components).
    Atomic {
        /// Byte address.
        addr: u64,
        /// `true` if the program consumes the returned value.
        returns_value: bool,
    },
    /// `cycles` of arithmetic occupying the warp's compute pipeline.
    Compute {
        /// Pipeline occupancy in cycles.
        cycles: u16,
    },
}

impl MicroOp {
    /// Convenience constructor for a blocking load.
    pub fn load(addr: u64) -> Self {
        MicroOp::Load { addr }
    }

    /// Convenience constructor for a store.
    pub fn store(addr: u64) -> Self {
        MicroOp::Store { addr }
    }

    /// Convenience constructor for a non-value-returning atomic
    /// (e.g. `atomicAdd` used as a reduction).
    pub fn atomic(addr: u64) -> Self {
        MicroOp::Atomic {
            addr,
            returns_value: false,
        }
    }

    /// Convenience constructor for a value-returning atomic
    /// (e.g. `atomicCAS` whose result drives control flow).
    pub fn atomic_returning(addr: u64) -> Self {
        MicroOp::Atomic {
            addr,
            returns_value: true,
        }
    }

    /// Convenience constructor for a compute burst.
    pub fn compute(cycles: u16) -> Self {
        MicroOp::Compute { cycles }
    }

    /// The byte address touched, if this is a memory operation.
    pub fn address(&self) -> Option<u64> {
        match *self {
            MicroOp::Load { addr } | MicroOp::Store { addr } | MicroOp::Atomic { addr, .. } => {
                Some(addr)
            }
            MicroOp::Compute { .. } => None,
        }
    }
}

/// The per-thread micro-op streams of one kernel launch.
///
/// Thread `i` belongs to thread block `i / tb_size`; blocks are
/// dispatched to SMs in order as resources free up.
///
/// Internally the streams live in one flat op arena plus a cumulative
/// offset table (thread `i` is `ops[offsets[i]..offsets[i + 1]]`), so a
/// trace costs two allocations regardless of thread count and the
/// simulator walks contiguous memory.
///
/// # Example
///
/// ```
/// use ggs_sim::trace::{KernelTrace, MicroOp};
///
/// let threads = vec![vec![MicroOp::load(0)], vec![MicroOp::compute(4)]];
/// let k = KernelTrace::try_new(threads, 256)?;
/// assert_eq!(k.num_threads(), 2);
/// assert_eq!(k.num_blocks(), 1);
/// # Ok::<(), ggs_sim::ParamsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// Every thread's ops, concatenated in thread order.
    ops: Vec<MicroOp>,
    /// `num_threads + 1` cumulative offsets into `ops`.
    offsets: Vec<u32>,
    tb_size: u32,
}

impl KernelTrace {
    /// Creates a kernel trace, or returns [`ParamsError::NonPositive`]
    /// if `tb_size` is zero.
    pub fn try_new(threads: Vec<Vec<MicroOp>>, tb_size: u32) -> Result<Self, ParamsError> {
        if tb_size == 0 {
            return Err(ParamsError::NonPositive("tb_size"));
        }
        let total: usize = threads.iter().map(|t| t.len()).sum();
        let mut ops = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(threads.len() + 1);
        offsets.push(0);
        for t in &threads {
            ops.extend_from_slice(t);
            offsets.push(u32::try_from(ops.len()).expect("trace exceeds u32 op capacity"));
        }
        Ok(Self {
            ops,
            offsets,
            tb_size,
        })
    }

    /// Creates a kernel trace directly from a flat op arena and its
    /// cumulative offset table (`num_threads + 1` entries starting at 0
    /// and ending at `ops.len()`). This is the allocation-free path for
    /// trace generators that append thread streams in order.
    ///
    /// # Panics
    ///
    /// Panics if `tb_size` is zero or the offset table is malformed.
    pub fn from_flat(ops: Vec<MicroOp>, offsets: Vec<u32>, tb_size: u32) -> Self {
        assert!(tb_size > 0, "tb_size must be positive");
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("offsets non-empty") as usize,
            ops.len(),
            "offsets must end at ops.len()"
        );
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self {
            ops,
            offsets,
            tb_size,
        }
    }

    /// Number of threads (may be less than `num_blocks * tb_size` in the
    /// final block).
    pub fn num_threads(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Thread block size this kernel was generated for.
    pub fn tb_size(&self) -> u32 {
        self.tb_size
    }

    /// Number of thread blocks.
    pub fn num_blocks(&self) -> u64 {
        self.num_threads().div_ceil(self.tb_size as u64)
    }

    /// The micro-op stream of one thread.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn thread(&self, thread: u64) -> &[MicroOp] {
        let t = thread as usize;
        &self.ops[self.offsets[t] as usize..self.offsets[t + 1] as usize]
    }

    /// A contiguous view of thread streams `lo..hi` (used by the engine
    /// to hand a thread block's threads to an SM).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn threads_slice(&self, lo: usize, hi: usize) -> ThreadsSlice<'_> {
        ThreadsSlice {
            ops: &self.ops,
            offsets: &self.offsets[lo..=hi],
        }
    }

    /// Total number of micro-ops across all threads.
    pub fn total_ops(&self) -> u64 {
        self.ops.len() as u64
    }

    /// Heap bytes held by the trace's op arena and offset table
    /// (capacity, not length — what the allocator actually committed).
    /// Capacity-bounded trace caches use this for their memory
    /// accounting.
    pub fn heap_bytes(&self) -> u64 {
        (self.ops.capacity() * std::mem::size_of::<MicroOp>()
            + self.offsets.capacity() * std::mem::size_of::<u32>()) as u64
    }
}

/// A borrowed, copyable view of a contiguous range of a kernel's thread
/// streams (a thread block, or a warp's lanes within one). Threads index
/// into the kernel's shared flat op arena, so slicing never allocates.
#[derive(Debug, Clone, Copy)]
pub struct ThreadsSlice<'k> {
    ops: &'k [MicroOp],
    /// `len() + 1` cumulative offsets into `ops` for this view's
    /// threads.
    offsets: &'k [u32],
}

impl<'k> ThreadsSlice<'k> {
    /// Number of threads in the view.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the view holds no threads.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The micro-op stream of thread `i` of the view.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn thread(&self, i: usize) -> &'k [MicroOp] {
        &self.ops[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Sub-view of threads `lo..hi` (e.g. one warp's lanes).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, lo: usize, hi: usize) -> ThreadsSlice<'k> {
        ThreadsSlice {
            ops: self.ops,
            offsets: &self.offsets[lo..=hi],
        }
    }

    /// Iterates over the view's thread streams in order.
    pub fn iter(&self) -> impl Iterator<Item = &'k [MicroOp]> + '_ {
        let ops = self.ops;
        self.offsets
            .windows(2)
            .map(move |w| &ops[w[0] as usize..w[1] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_count_rounds_up() {
        let k = KernelTrace::try_new(vec![Vec::new(); 257], 256).unwrap();
        assert_eq!(k.num_blocks(), 2);
    }

    #[test]
    fn addresses() {
        assert_eq!(MicroOp::load(64).address(), Some(64));
        assert_eq!(MicroOp::store(4).address(), Some(4));
        assert_eq!(MicroOp::atomic(8).address(), Some(8));
        assert_eq!(MicroOp::compute(2).address(), None);
    }

    #[test]
    fn returning_flag() {
        assert!(matches!(
            MicroOp::atomic_returning(0),
            MicroOp::Atomic {
                returns_value: true,
                ..
            }
        ));
        assert!(matches!(
            MicroOp::atomic(0),
            MicroOp::Atomic {
                returns_value: false,
                ..
            }
        ));
    }

    #[test]
    fn total_ops_sums_threads() {
        let k = KernelTrace::try_new(
            vec![vec![MicroOp::compute(1); 3], vec![MicroOp::compute(1); 2]],
            128,
        )
        .unwrap();
        assert_eq!(k.total_ops(), 5);
    }

    #[test]
    fn zero_tb_size_rejected() {
        let err = KernelTrace::try_new(Vec::new(), 0).unwrap_err();
        assert_eq!(err, ParamsError::NonPositive("tb_size"));
        assert!(err.to_string().contains("tb_size"));
    }

    #[test]
    fn try_new_reports_zero_tb_size() {
        assert!(KernelTrace::try_new(Vec::new(), 0).is_err());
        assert!(KernelTrace::try_new(Vec::new(), 1).is_ok());
    }
}
