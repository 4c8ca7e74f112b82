//! Object tracking in sensor networks — the paper's first motivating
//! application ("tracing objects in sensor networks").
//!
//! A field of sensors is laid out along a space-filling (Z-order) curve so
//! that each tracking node owns a contiguous curve segment. Moving objects
//! report (x, y) positions; the distributed index maps the Z-order key of
//! a report to the node that owns that patch of the field. We simulate a
//! few thousand objects doing random walks and show that consecutive
//! reports from the same object usually stay on the same tracking node
//! (spatial locality — the property that makes range partitioning the
//! right tool here, and which a hash index would destroy).
//!
//! ```text
//! cargo run --release --example sensor_tracking
//! ```

use dini::{DistributedIndex, NativeConfig};

/// Interleave the bits of 16-bit x and y into a Z-order (Morton) key.
fn z_order(x: u16, y: u16) -> u32 {
    let mut z = 0u32;
    for i in 0..16 {
        z |= ((x as u32 >> i) & 1) << (2 * i);
        z |= ((y as u32 >> i) & 1) << (2 * i + 1);
    }
    z
}

struct Walker {
    x: u16,
    y: u16,
    seed: u64,
}

impl Walker {
    fn step(&mut self) -> (u16, u16) {
        // xorshift random walk, ±1 in each axis.
        self.seed ^= self.seed << 13;
        self.seed ^= self.seed >> 7;
        self.seed ^= self.seed << 17;
        let dx = (self.seed % 3) as i32 - 1;
        let dy = ((self.seed >> 8) % 3) as i32 - 1;
        self.x = (self.x as i32 + dx).clamp(0, u16::MAX as i32) as u16;
        self.y = (self.y as i32 + dy).clamp(0, u16::MAX as i32) as u16;
        (self.x, self.y)
    }
}

fn main() {
    const N_TRACKERS: usize = 8;
    const N_OBJECTS: usize = 4_096;
    const N_STEPS: usize = 64;

    // The field index: a uniform grid of sensor cells in Z-order. Each
    // tracker owns 1/8 of the curve.
    let mut cells: Vec<u32> = (0..65_536u32)
        .map(|i| z_order(((i % 256) * 256) as u16, ((i / 256) * 256) as u16))
        .collect();
    cells.sort_unstable();
    cells.dedup();

    let cfg = NativeConfig { n_slaves: N_TRACKERS, pin_cores: false };
    let mut field = DistributedIndex::build(&cells, cfg);
    println!("sensor field: {} cells over {N_TRACKERS} tracking nodes", cells.len());

    let mut walkers: Vec<Walker> = (0..N_OBJECTS)
        .map(|i| Walker {
            x: (i as u64 * 9_973 % 65_536) as u16,
            y: (i as u64 * 31_337 % 65_536) as u16,
            seed: 0x9E37_79B9_7F4A_7C15 ^ (i as u64),
        })
        .collect();

    let mut prev_owner: Vec<usize> = vec![usize::MAX; N_OBJECTS];
    let mut handoffs = 0u64;
    let mut reports = 0u64;
    let mut load = vec![0u64; N_TRACKERS];

    for _step in 0..N_STEPS {
        // One batched position report per tick — the batching the paper's
        // Method C depends on falls out naturally here.
        let batch: Vec<u32> = walkers
            .iter_mut()
            .map(|w| {
                let (x, y) = w.step();
                z_order(x, y)
            })
            .collect();
        let _ranks = field.lookup_batch(&batch);
        for (obj, &key) in batch.iter().enumerate() {
            let owner = field.dispatch(key);
            load[owner] += 1;
            if prev_owner[obj] != usize::MAX && prev_owner[obj] != owner {
                handoffs += 1;
            }
            prev_owner[obj] = owner;
            reports += 1;
        }
    }

    let handoff_rate = handoffs as f64 / reports as f64 * 100.0;
    println!("{reports} position reports, {handoffs} tracker handoffs ({handoff_rate:.2} %)");
    println!("per-tracker report counts: {load:?}");
    assert!(
        handoff_rate < 10.0,
        "random walks are spatially local; handoffs should be rare, got {handoff_rate:.1} %"
    );
}
