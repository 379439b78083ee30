//! The dynamic-instruction vocabulary executed by the simulated cores.
//!
//! Workload generators (the `critmem-workloads` crate) emit streams of
//! [`Instr`]; the out-of-order core consumes them. Register
//! dependencies are expressed positionally: `src1`/`src2` give the
//! *distance* (in dynamic instructions) back to the producing
//! instruction, which is how trace-driven simulators commonly encode
//! dataflow without architecting a register file.

use critmem_common::{Pc, PhysAddr};

/// Operation class and operands of one dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrKind {
    /// Single-cycle integer ALU operation.
    IntAlu,
    /// Integer multiply (3 cycles, one unit — Table 1).
    IntMul,
    /// Floating-point add/sub (3 cycles).
    FpAlu,
    /// Floating-point multiply (5 cycles, one unit).
    FpMul,
    /// Data-cache load.
    Load {
        /// Effective address.
        addr: PhysAddr,
    },
    /// Data-cache store (address generation at issue, data written
    /// post-commit through the store buffer).
    Store {
        /// Effective address.
        addr: PhysAddr,
    },
    /// Conditional branch; `mispredict` is decided by the workload
    /// generator's branch-accuracy model.
    Branch {
        /// Whether the (Alpha-21264-class) predictor misses this one.
        mispredict: bool,
    },
}

impl InstrKind {
    /// Execution latency in cycles for non-memory operations (loads
    /// and stores are timed by the cache hierarchy).
    pub fn fixed_latency(self) -> u64 {
        match self {
            InstrKind::IntAlu => 1,
            InstrKind::IntMul => 3,
            InstrKind::FpAlu => 3,
            InstrKind::FpMul => 5,
            InstrKind::Branch { .. } => 1,
            // Store "execution" is address generation.
            InstrKind::Store { .. } => 1,
            InstrKind::Load { .. } => 0,
        }
    }

    /// Whether the instruction reads the data cache.
    pub fn is_load(self) -> bool {
        matches!(self, InstrKind::Load { .. })
    }

    /// Whether the instruction writes the data cache.
    pub fn is_store(self) -> bool {
        matches!(self, InstrKind::Store { .. })
    }

    /// Whether the instruction is a branch.
    pub fn is_branch(self) -> bool {
        matches!(self, InstrKind::Branch { .. })
    }
}

/// One dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Instr {
    /// Static program counter (used to index the CBP/CLPT).
    pub pc: Pc,
    /// Operation.
    pub kind: InstrKind,
    /// Distance (1-based, in dynamic instructions) to the first source
    /// operand's producer, if any.
    pub src1: Option<u16>,
    /// Distance to the second source operand's producer, if any.
    pub src2: Option<u16>,
}

impl Instr {
    /// Convenience constructor for dependency-free instructions.
    pub fn new(pc: Pc, kind: InstrKind) -> Self {
        Instr {
            pc,
            kind,
            src1: None,
            src2: None,
        }
    }

    /// Attaches source-operand producer distances (builder style).
    /// Distances are 1-based: 0 would name the instruction itself.
    #[must_use]
    pub fn with_deps(mut self, src1: Option<u16>, src2: Option<u16>) -> Self {
        debug_assert!(
            src1 != Some(0) && src2 != Some(0),
            "producer distance 0 names the instruction itself"
        );
        self.src1 = src1;
        self.src2 = src2;
        self
    }

    /// Serializes for checkpoint artifacts.
    pub fn encode(&self, w: &mut critmem_common::codec::ByteWriter) {
        w.put_u64(self.pc);
        match self.kind {
            InstrKind::IntAlu => w.put_u8(0),
            InstrKind::IntMul => w.put_u8(1),
            InstrKind::FpAlu => w.put_u8(2),
            InstrKind::FpMul => w.put_u8(3),
            InstrKind::Load { addr } => {
                w.put_u8(4);
                w.put_u64(addr);
            }
            InstrKind::Store { addr } => {
                w.put_u8(5);
                w.put_u64(addr);
            }
            InstrKind::Branch { mispredict } => {
                w.put_u8(6);
                w.put_bool(mispredict);
            }
        }
        for src in [self.src1, self.src2] {
            match src {
                Some(d) => {
                    w.put_bool(true);
                    w.put_u32(u32::from(d));
                }
                None => w.put_bool(false),
            }
        }
    }

    /// Deserializes a checkpointed instruction.
    ///
    /// # Errors
    ///
    /// Fails on a truncated stream, an unknown kind tag, or a producer
    /// distance of 0 or beyond `u16`.
    pub fn decode(
        r: &mut critmem_common::codec::ByteReader<'_>,
    ) -> Result<Self, critmem_common::codec::CodecError> {
        let pc = r.get_u64()?;
        let tag_at = r.position();
        let kind = match r.get_u8()? {
            0 => InstrKind::IntAlu,
            1 => InstrKind::IntMul,
            2 => InstrKind::FpAlu,
            3 => InstrKind::FpMul,
            4 => InstrKind::Load { addr: r.get_u64()? },
            5 => InstrKind::Store { addr: r.get_u64()? },
            6 => InstrKind::Branch {
                mispredict: r.get_bool()?,
            },
            n => {
                return Err(critmem_common::codec::CodecError {
                    message: format!("unknown instruction kind tag {n}"),
                    offset: tag_at,
                })
            }
        };
        let mut srcs = [None, None];
        for src in &mut srcs {
            if r.get_bool()? {
                let at = r.position();
                let d = r.get_u32()?;
                let bad = |message: String| critmem_common::codec::CodecError {
                    message,
                    offset: at,
                };
                *src = Some(match u16::try_from(d) {
                    Ok(0) => {
                        return Err(bad(
                            "producer distance 0 names the instruction itself".into()
                        ))
                    }
                    Ok(d) => d,
                    Err(_) => return Err(bad(format!("producer distance {d} exceeds u16"))),
                });
            }
        }
        Ok(Instr {
            pc,
            kind,
            src1: srcs[0],
            src2: srcs[1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_match_table1_style_units() {
        assert_eq!(InstrKind::IntAlu.fixed_latency(), 1);
        assert_eq!(InstrKind::IntMul.fixed_latency(), 3);
        assert_eq!(InstrKind::FpMul.fixed_latency(), 5);
        assert_eq!(InstrKind::Branch { mispredict: false }.fixed_latency(), 1);
    }

    #[test]
    fn classification() {
        assert!(InstrKind::Load { addr: 0 }.is_load());
        assert!(InstrKind::Store { addr: 0 }.is_store());
        assert!(InstrKind::Branch { mispredict: true }.is_branch());
        assert!(!InstrKind::IntAlu.is_load());
    }

    fn encoded(i: &Instr) -> Vec<u8> {
        let mut w = critmem_common::codec::ByteWriter::new();
        i.encode(&mut w);
        w.into_bytes()
    }

    #[test]
    fn decode_round_trips_and_rejects_bad_distances() {
        let i = Instr::new(0x40, InstrKind::Load { addr: 0x1000 }).with_deps(Some(1), Some(300));
        let bytes = encoded(&i);
        let mut r = critmem_common::codec::ByteReader::new(&bytes);
        assert_eq!(Instr::decode(&mut r).unwrap(), i);

        // Patch src2's distance on the wire past the builder's check.
        for (src2, needle) in [(0, "distance 0"), (70_000, "exceeds u16")] {
            let mut bytes =
                encoded(&Instr::new(0x40, InstrKind::IntAlu).with_deps(Some(1), Some(7)));
            // src2's distance is the last field.
            let at = bytes.len() - 4;
            bytes[at..].copy_from_slice(&u32::to_le_bytes(src2));
            let mut r = critmem_common::codec::ByteReader::new(&bytes);
            let err = Instr::decode(&mut r).unwrap_err();
            assert!(err.message.contains(needle), "{src2}: {}", err.message);
            assert_eq!(err.offset, at);
        }
    }

    #[test]
    #[should_panic(expected = "producer distance 0")]
    #[cfg(debug_assertions)]
    fn builder_rejects_distance_zero() {
        let _ = Instr::new(0x40, InstrKind::IntAlu).with_deps(None, Some(0));
    }

    #[test]
    fn builder_attaches_deps() {
        let i = Instr::new(0x40, InstrKind::IntAlu).with_deps(Some(1), Some(4));
        assert_eq!(i.src1, Some(1));
        assert_eq!(i.src2, Some(4));
    }
}
