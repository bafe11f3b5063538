// L2 fixture: deterministic idioms — seeded RNG, ordered maps, and
// order-insensitive reductions over hash maps.

fn ordered_report(m: &HashMap<u32, u64>, b: &BTreeMap<u32, u64>, seed: u64) -> u64 {
    let mut rng = ChaCha8::from_seed(seed);
    // Order-insensitive reducers over a hash map are fine.
    let total: u64 = m.values().sum();
    let live = m.values().filter(|v| **v > 0).count();
    // Iterating an ordered map is fine.
    let mut acc = 0;
    for (_k, v) in b {
        acc += *v;
    }
    acc + total + live as u64 + rng.next_u64()
}
