//! The micro-architectural counter set.
//!
//! One [`IntervalCounters`] is produced per 80 µs step. The 77 counters
//! here plus `temperature_sensor_data` (appended by the telemetry crate)
//! form the paper's 78 system attributes; the Table IV names
//! (`ROB_reads`, `cdb_alu_accesses`, `MUL_cdb_duty_cycle`, …) appear
//! verbatim.

use std::fmt;

macro_rules! counters {
    ($( $(#[$meta:meta])* $variant:ident => $name:literal ),+ $(,)?) => {
        /// Identifier of one micro-architectural counter.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        #[repr(usize)]
        pub enum CounterId {
            $( $(#[$meta])* $variant ),+
        }

        /// Number of micro-architectural counters (77; +1 temperature
        /// feature appended downstream = the paper's 78 attributes).
        pub const NUM_COUNTERS: usize = [$( CounterId::$variant ),+].len();

        impl CounterId {
            /// All counters, in stable index order.
            pub const ALL: [CounterId; NUM_COUNTERS] = [$( CounterId::$variant ),+];

            /// Canonical telemetry name (Table IV spelling).
            pub fn name(self) -> &'static str {
                match self {
                    $( CounterId::$variant => $name ),+
                }
            }

            /// Parses a canonical name.
            pub fn from_name(name: &str) -> Option<CounterId> {
                match name {
                    $( $name => Some(CounterId::$variant), )+
                    _ => None,
                }
            }

            /// Stable index of this counter in [`CounterId::ALL`].
            #[inline]
            pub const fn index(self) -> usize {
                self as usize
            }
        }
    };
}

counters! {
    /// Clock cycles elapsed in the interval.
    TotalCycles => "total_cycles",
    /// Cycles in which at least one µop issued.
    BusyCycles => "busy_cycles",
    /// Cycles stalled with a full re-order buffer.
    StallCyclesRob => "stall_cycles_rob",
    /// Cycles stalled with full reservation stations.
    StallCyclesRs => "stall_cycles_rs",
    /// Cycles stalled waiting on memory.
    StallCyclesMem => "stall_cycles_mem",
    /// Cycles the front end delivered no µops.
    StallCyclesFrontend => "stall_cycles_frontend",
    /// Instructions fetched (including wrong-path).
    FetchedInstructions => "fetched_instructions",
    /// Instructions decoded.
    DecodedInstructions => "decoded_instructions",
    /// Instructions renamed.
    RenamedInstructions => "renamed_instructions",
    /// µops issued to execution ports.
    IssuedInstructions => "issued_instructions",
    /// Instructions committed (architectural).
    CommittedInstructions => "committed_instructions",
    /// Committed integer-ALU instructions.
    CommittedIntInstructions => "committed_int_instructions",
    /// Committed floating-point instructions.
    CommittedFpInstructions => "committed_fp_instructions",
    /// Committed integer multiply/divide instructions.
    CommittedMulInstructions => "committed_mul_instructions",
    /// Committed loads.
    CommittedLoadInstructions => "committed_load_instructions",
    /// Committed stores.
    CommittedStoreInstructions => "committed_store_instructions",
    /// Committed branches.
    CommittedBranchInstructions => "committed_branch_instructions",
    /// Wrong-path instructions squashed.
    SquashedInstructions => "squashed_instructions",
    /// Branch-direction predictions made.
    BranchPredictions => "branch_predictions",
    /// Branch mispredictions.
    BranchMispredictions => "branch_mispredictions",
    /// Branch-target-buffer reads.
    BtbReadAccesses => "BTB_read_accesses",
    /// Branch-target-buffer writes.
    BtbWriteAccesses => "BTB_write_accesses",
    /// Return-address-stack accesses.
    RasAccesses => "RAS_accesses",
    /// L1I reads.
    IcacheReadAccesses => "icache_read_accesses",
    /// L1I read misses.
    IcacheReadMisses => "icache_read_misses",
    /// L1D reads.
    DcacheReadAccesses => "dcache_read_accesses",
    /// L1D read misses.
    DcacheReadMisses => "dcache_read_misses",
    /// L1D writes.
    DcacheWriteAccesses => "dcache_write_accesses",
    /// L1D write misses.
    DcacheWriteMisses => "dcache_write_misses",
    /// L2 reads.
    L2ReadAccesses => "l2_read_accesses",
    /// L2 read misses.
    L2ReadMisses => "l2_read_misses",
    /// L2 writes (fills and writebacks).
    L2WriteAccesses => "l2_write_accesses",
    /// L2 write misses.
    L2WriteMisses => "l2_write_misses",
    /// Off-chip memory reads.
    MemoryReads => "memory_reads",
    /// Off-chip memory writes.
    MemoryWrites => "memory_writes",
    /// ITLB lookups.
    ItlbTotalAccesses => "itlb_total_accesses",
    /// ITLB misses.
    ItlbTotalMisses => "itlb_total_misses",
    /// DTLB lookups.
    DtlbTotalAccesses => "dtlb_total_accesses",
    /// DTLB misses.
    DtlbTotalMisses => "dtlb_total_misses",
    /// Re-order-buffer reads.
    RobReads => "ROB_reads",
    /// Re-order-buffer writes.
    RobWrites => "ROB_writes",
    /// Reservation-station reads.
    RsReads => "RS_reads",
    /// Reservation-station writes.
    RsWrites => "RS_writes",
    /// Rename-table reads.
    RenameReads => "rename_reads",
    /// Rename-table writes.
    RenameWrites => "rename_writes",
    /// Integer register-file reads.
    IntRegfileReads => "int_regfile_reads",
    /// Integer register-file writes.
    IntRegfileWrites => "int_regfile_writes",
    /// FP register-file reads.
    FpRegfileReads => "fp_regfile_reads",
    /// FP register-file writes.
    FpRegfileWrites => "fp_regfile_writes",
    /// ALU results broadcast on the common data bus.
    CdbAluAccesses => "cdb_alu_accesses",
    /// Multiplier results broadcast on the CDB.
    CdbMulAccesses => "cdb_mul_accesses",
    /// FPU results broadcast on the CDB.
    CdbFpuAccesses => "cdb_fpu_accesses",
    /// Integer-ALU executions.
    AluAccesses => "alu_accesses",
    /// Multiplier executions.
    MulAccesses => "mul_accesses",
    /// FPU executions.
    FpuAccesses => "fpu_accesses",
    /// Load-store-unit operations.
    LsuAccesses => "lsu_accesses",
    /// Fraction of cycles the IFU was active.
    IfuDutyCycle => "IFU_duty_cycle",
    /// Fraction of cycles the LSU was active.
    LsuDutyCycle => "LSU_duty_cycle",
    /// Fraction of cycles the ALU drove the CDB.
    AluCdbDutyCycle => "ALU_cdb_duty_cycle",
    /// Fraction of cycles the multiplier drove the CDB.
    MulCdbDutyCycle => "MUL_cdb_duty_cycle",
    /// Fraction of cycles the FPU drove the CDB.
    FpuCdbDutyCycle => "FPU_cdb_duty_cycle",
    /// Fraction of cycles the decoders were active.
    DecodeDutyCycle => "decode_duty_cycle",
    /// Fraction of cycles rename was active.
    RenameDutyCycle => "rename_duty_cycle",
    /// Fraction of cycles the ROB ports were active.
    RobDutyCycle => "rob_duty_cycle",
    /// Fraction of cycles the scheduler woke/selected.
    SchedulerDutyCycle => "scheduler_duty_cycle",
    /// Fraction of cycles the L1D was active.
    DcacheDutyCycle => "dcache_duty_cycle",
    /// Fraction of cycles the L1I was active.
    IcacheDutyCycle => "icache_duty_cycle",
    /// Fraction of cycles the L2 was active.
    L2DutyCycle => "l2_duty_cycle",
    /// Committed instructions per cycle.
    Ipc => "ipc",
    /// Core frequency during the interval, GHz.
    FrequencyGhz => "frequency_ghz",
    /// Core voltage during the interval, V.
    VoltageV => "voltage_v",
    /// Average ROB occupancy (entries).
    AvgRobOccupancy => "avg_rob_occupancy",
    /// Average reservation-station occupancy (entries).
    AvgRsOccupancy => "avg_rs_occupancy",
    /// Average load/store-queue occupancy (entries).
    AvgLsqOccupancy => "avg_lsq_occupancy",
    /// Average outstanding memory requests (MLP).
    MemoryLevelParallelism => "memory_level_parallelism",
    /// µops executed (including replays).
    UopsExecuted => "uops_executed",
    /// Result writebacks to the register files.
    WritebackAccesses => "writeback_accesses",
}

impl fmt::Display for CounterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The counters measured over one 80 µs interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalCounters {
    values: Vec<f64>,
}

impl IntervalCounters {
    /// Creates an all-zero counter set.
    pub fn zeroed() -> Self {
        Self {
            values: vec![0.0; NUM_COUNTERS],
        }
    }

    /// A counter set from its values in [`CounterId::ALL`] order, or
    /// `None` unless there are exactly [`NUM_COUNTERS`] of them.
    pub fn from_values(values: Vec<f64>) -> Option<Self> {
        (values.len() == NUM_COUNTERS).then_some(Self { values })
    }

    /// Reads one counter.
    #[inline]
    pub fn get(&self, id: CounterId) -> f64 {
        self.values[id.index()]
    }

    /// Writes one counter.
    #[inline]
    pub fn set(&mut self, id: CounterId, value: f64) {
        self.values[id.index()] = value;
    }

    /// All values in [`CounterId::ALL`] order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// All values in [`CounterId::ALL`] order, writable in place (a
    /// decoder fills a reused record through this).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Committed IPC for the interval.
    pub fn ipc(&self) -> f64 {
        self.get(CounterId::Ipc)
    }

    /// Returns `true` if every counter is finite and non-negative.
    pub fn is_sane(&self) -> bool {
        self.values.iter().all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl Default for IntervalCounters {
    fn default() -> Self {
        Self::zeroed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_77_counters() {
        // +1 temperature feature appended downstream = 78 paper attributes.
        assert_eq!(NUM_COUNTERS, 77);
        assert_eq!(CounterId::ALL.len(), 77);
    }

    #[test]
    fn indices_are_stable_and_dense() {
        for (i, id) in CounterId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn names_are_unique_and_roundtrip() {
        let mut names: Vec<_> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_COUNTERS);
        for id in CounterId::ALL {
            assert_eq!(CounterId::from_name(id.name()), Some(id));
        }
        assert_eq!(CounterId::from_name("bogus"), None);
    }

    #[test]
    fn table_iv_names_exist() {
        // Every Table IV attribute except temperature_sensor_data must be
        // a counter here, spelled identically.
        for name in [
            "cdb_alu_accesses",
            "committed_instructions",
            "dcache_read_accesses",
            "ROB_reads",
            "total_cycles",
            "busy_cycles",
            "icache_read_accesses",
            "committed_int_instructions",
            "dtlb_total_accesses",
            "itlb_total_misses",
            "BTB_read_accesses",
            "dcache_read_misses",
            "cdb_fpu_accesses",
            "MUL_cdb_duty_cycle",
            "branch_mispredictions",
            "LSU_duty_cycle",
            "IFU_duty_cycle",
            "FPU_cdb_duty_cycle",
            "dcache_write_accesses",
        ] {
            assert!(CounterId::from_name(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn get_set_roundtrip() {
        let mut c = IntervalCounters::zeroed();
        assert!(c.is_sane());
        c.set(CounterId::Ipc, 1.75);
        assert_eq!(c.get(CounterId::Ipc), 1.75);
        assert_eq!(c.ipc(), 1.75);
        c.set(CounterId::TotalCycles, -1.0);
        assert!(!c.is_sane());
    }
}
