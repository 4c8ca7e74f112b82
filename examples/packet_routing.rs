//! Packet routing over the internet — another of the paper's motivating
//! applications ("routing packets over internet").
//!
//! A routing table of CIDR-style prefixes is flattened into disjoint
//! address ranges (the classic "interval table" form): each range start is
//! a key, and the rank of a destination address identifies the range —
//! hence the next hop. The distributed index answers a stream of
//! longest-prefix-match queries by batched rank lookups and we cross-check
//! every answer against a linear-scan oracle.
//!
//! ```text
//! cargo run --release --example packet_routing
//! ```

use dini::{DistributedIndex, NativeConfig};

/// A flattened routing entry: addresses in `[start, end)` go to `next_hop`.
#[derive(Debug, Clone, Copy)]
struct Route {
    start: u32,
    end: u32,
    next_hop: u16,
}

/// Build a deterministic synthetic routing table of disjoint ranges
/// covering the whole address space (as a real FIB flattening produces).
fn build_routes(n: usize) -> Vec<Route> {
    let mut starts: Vec<u32> = vec![0];
    let mut x = 0x2545_F491u32;
    while starts.len() < n {
        // xorshift over the address space
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        starts.push(x);
    }
    starts.sort_unstable();
    starts.dedup();
    let n = starts.len();
    (0..n)
        .map(|i| Route {
            start: starts[i],
            end: if i + 1 < n { starts[i + 1] } else { u32::MAX },
            next_hop: (starts[i] % 64) as u16,
        })
        .collect()
}

fn main() {
    let routes = build_routes(200_000);
    println!("routing table: {} disjoint ranges", routes.len());

    // Keys are the range starts; rank(addr) - 1 is the covering range.
    let keys: Vec<u32> = routes.iter().map(|r| r.start).collect();
    let cfg = NativeConfig { n_slaves: 8, pin_cores: false };
    let mut fib = DistributedIndex::build(&keys, cfg);

    // A packet stream with mixed hot destinations and random scans.
    let packets: Vec<u32> = (0..500_000u32)
        .map(|i| {
            if i % 4 == 0 {
                0xC0A8_0000u32.wrapping_add(i % 65_536) // hot /16
            } else {
                i.wrapping_mul(0x9E37_79B9)
            }
        })
        .collect();

    let ranks = fib.lookup_batch(&packets);
    let mut hops = vec![0u64; 64];
    for (i, &addr) in packets.iter().enumerate() {
        // rank = number of range starts <= addr; starts[0] == 0 so rank >= 1.
        let idx = (ranks[i] - 1) as usize;
        let r = &routes[idx];
        assert!(
            r.start <= addr && (addr < r.end || r.end == u32::MAX),
            "packet {addr:#x} matched range [{:#x},{:#x})",
            r.start,
            r.end
        );
        hops[r.next_hop as usize] += 1;
    }

    // Spot-check a sample against the linear oracle.
    for &addr in packets.iter().step_by(50_021) {
        let oracle = routes.iter().rposition(|r| r.start <= addr).unwrap();
        let got = (fib.lookup(addr) - 1) as usize;
        assert_eq!(got, oracle, "addr {addr:#x}");
    }

    let busiest = hops.iter().enumerate().max_by_key(|(_, h)| **h).unwrap();
    println!(
        "routed {} packets across 64 next hops; busiest hop {} carried {} packets",
        packets.len(),
        busiest.0,
        busiest.1
    );
}
