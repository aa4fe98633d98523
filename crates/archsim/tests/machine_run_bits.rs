//! Pins the live performance path, `Machine::run`, to exact bits.
//!
//! Every figure reaches its performance-vs-frequency numbers through
//! `Machine::run`: the interval CPI model plus the DRAM-latency fixed point
//! over the seeded Wide I/O channel model. Any change that moves one
//! floating-point operation or one draw of the channel model's arrival
//! stream fails this test.

use xylem_archsim::Machine;
use xylem_workloads::Benchmark;

/// `(benchmark, f_ghz, [exec_time_s, dram_latency_ns, activity,
/// dram_read_rate])` as `f64::to_bits`, 8 threads.
const PINNED: [(Benchmark, f64, [u64; 4]); 6] = [
    // Compute-bound.
    (
        Benchmark::LuNas,
        2.4,
        [
            0x3fa4e7106e907f06,
            0x4041e30bf8c6e485,
            0x3feeb910c5ea643a,
            0x4161d3567b97154c,
        ],
    ),
    (
        Benchmark::LuNas,
        3.5,
        [
            0x3f9cf08efedcf0d4,
            0x4042054698442d3b,
            0x3fee6ecc7325bc13,
            0x4169c007396158a0,
        ],
    ),
    // Memory-bound.
    (
        Benchmark::Is,
        2.4,
        [
            0x3fb28b706e746ba8,
            0x404af040a5d3a785,
            0x3fc8a2b1ae00ec15,
            0x418d1e6d5fd28a66,
        ],
    ),
    (
        Benchmark::Is,
        3.5,
        [
            0x3fafa8760808088c,
            0x404ba251dd33ab1b,
            0x3fc3ca8682c531ee,
            0x41910ea967840ad4,
        ],
    ),
    // Sharing-heavy.
    (
        Benchmark::Barnes,
        2.4,
        [
            0x3fa5274729fdc65a,
            0x4043ef15741029b8,
            0x3feddf957995897e,
            0x4163c7023fa0f986,
        ],
    ),
    (
        Benchmark::Barnes,
        3.5,
        [
            0x3f9d632fe971513c,
            0x40441d6ec9de6264,
            0x3fed7d77bbbf9e13,
            0x416c78d3620efb16,
        ],
    ),
];

#[test]
fn machine_run_bits_are_pinned() {
    let machine = Machine::paper_default();
    for (benchmark, f_ghz, expected) in PINNED {
        let m = machine.run(benchmark, f_ghz, 8);
        let got = [
            m.exec_time_s.to_bits(),
            m.dram_latency_ns.to_bits(),
            m.activity.to_bits(),
            m.dram_read_rate.to_bits(),
        ];
        assert_eq!(
            got.map(|b| format!("{b:#018x}")),
            expected.map(|b| format!("{b:#018x}")),
            "{benchmark} @ {f_ghz} GHz: [exec_time_s, dram_latency_ns, activity, dram_read_rate]"
        );
    }
}
