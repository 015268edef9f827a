//! The micro-op trace format kernels are expressed in.
//!
//! Applications compile each GPU kernel into one micro-op stream per
//! thread. The simulator executes threads in 32-lane warps: at *slot*
//! `k`, a warp executes op `k` of every lane that still has ops left
//! (shorter lanes simply become inactive — this models loop-trip-count
//! divergence, the dominant divergence in vertex-centric graph kernels).

use std::fmt;

use crate::params::ParamsError;

/// One micro-operation of a GPU thread, decoded (see [`MicroOp::op`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
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

/// One micro-operation of a GPU thread, packed into 8 bytes.
///
/// The top 3 bits hold the kind (compute, load, store, atomic,
/// value-returning atomic); the low 61 bits hold the byte address, or
/// the compute cycles. That is half the size of a tagged enum holding a
/// `u64` address, and trace arenas are mostly ops. Build ops with the
/// constructors and read them back with [`MicroOp::op`].
///
/// # Example
///
/// ```
/// use ggs_sim::trace::{MicroOp, Op};
///
/// let op = MicroOp::atomic_returning(64);
/// assert_eq!(op.op(), Op::Atomic { addr: 64, returns_value: true });
/// assert_eq!(op.address(), Some(64));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct MicroOp(u64);

const _: () = assert!(std::mem::size_of::<MicroOp>() == 8);

/// Bit position of the 3-bit kind field.
const KIND_SHIFT: u32 = 61;
/// Mask of the 61-bit payload (address or compute cycles).
const PAYLOAD: u64 = (1 << KIND_SHIFT) - 1;

const COMPUTE: u64 = 0;
const LOAD: u64 = 1;
const STORE: u64 = 2;
const ATOMIC: u64 = 3;
const ATOMIC_RETURNING: u64 = 4;

impl MicroOp {
    /// Packs a memory op of `kind` at `addr`.
    fn memory(kind: u64, addr: u64) -> Self {
        assert!(addr <= PAYLOAD, "address {addr:#x} exceeds 61 bits");
        MicroOp(kind << KIND_SHIFT | addr)
    }

    /// Convenience constructor for a blocking load.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not below `2^61`.
    pub fn load(addr: u64) -> Self {
        Self::memory(LOAD, addr)
    }

    /// Convenience constructor for a store.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not below `2^61`.
    pub fn store(addr: u64) -> Self {
        Self::memory(STORE, addr)
    }

    /// Convenience constructor for a non-value-returning atomic
    /// (e.g. `atomicAdd` used as a reduction).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not below `2^61`.
    pub fn atomic(addr: u64) -> Self {
        Self::memory(ATOMIC, addr)
    }

    /// Convenience constructor for a value-returning atomic
    /// (e.g. `atomicCAS` whose result drives control flow).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not below `2^61`.
    pub fn atomic_returning(addr: u64) -> Self {
        Self::memory(ATOMIC_RETURNING, addr)
    }

    /// Convenience constructor for a compute burst.
    pub fn compute(cycles: u16) -> Self {
        MicroOp(COMPUTE << KIND_SHIFT | cycles as u64)
    }

    /// The decoded operation.
    #[inline]
    pub fn op(self) -> Op {
        let payload = self.0 & PAYLOAD;
        match self.0 >> KIND_SHIFT {
            COMPUTE => Op::Compute {
                cycles: payload as u16,
            },
            LOAD => Op::Load { addr: payload },
            STORE => Op::Store { addr: payload },
            kind => Op::Atomic {
                addr: payload,
                returns_value: kind == ATOMIC_RETURNING,
            },
        }
    }

    /// The byte address touched, if this is a memory operation.
    #[inline]
    pub fn address(&self) -> Option<u64> {
        (self.0 >> KIND_SHIFT != COMPUTE).then_some(self.0 & PAYLOAD)
    }
}

impl fmt::Debug for MicroOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.op().fmt(f)
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

    /// Capacity in bytes of the trace's op arena plus its offset table.
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
        assert_eq!(MicroOp::load(64).op(), Op::Load { addr: 64 });
        assert_eq!(MicroOp::store(4).op(), Op::Store { addr: 4 });
        assert_eq!(MicroOp::compute(2).op(), Op::Compute { cycles: 2 });
    }

    #[test]
    fn returning_flag() {
        assert!(matches!(
            MicroOp::atomic_returning(0).op(),
            Op::Atomic {
                returns_value: true,
                ..
            }
        ));
        assert!(matches!(
            MicroOp::atomic(0).op(),
            Op::Atomic {
                returns_value: false,
                ..
            }
        ));
    }

    #[test]
    fn encoding_round_trips() {
        for addr in [0, 4, 1 << 46, (1 << 61) - 1] {
            let cases = [
                (MicroOp::load(addr), Op::Load { addr }),
                (MicroOp::store(addr), Op::Store { addr }),
                (
                    MicroOp::atomic(addr),
                    Op::Atomic {
                        addr,
                        returns_value: false,
                    },
                ),
                (
                    MicroOp::atomic_returning(addr),
                    Op::Atomic {
                        addr,
                        returns_value: true,
                    },
                ),
            ];
            for (op, decoded) in cases {
                assert_eq!(op.op(), decoded);
                assert_eq!(op.address(), Some(addr));
            }
        }
        for cycles in [0, 1, u16::MAX] {
            let op = MicroOp::compute(cycles);
            assert_eq!(op.op(), Op::Compute { cycles });
            assert_eq!(op.address(), None);
        }
    }

    #[test]
    fn debug_prints_the_decoded_op() {
        assert_eq!(format!("{:?}", MicroOp::load(64)), "Load { addr: 64 }");
        assert_eq!(
            format!("{:?}", MicroOp::atomic_returning(8)),
            "Atomic { addr: 8, returns_value: true }"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds 61 bits")]
    fn address_past_61_bits_rejected() {
        MicroOp::load(1 << 61);
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
