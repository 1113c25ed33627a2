//! What the spill store's durability tests compare a [`SpillStore`] with: a
//! map from key to the version and length of its latest write, and payloads
//! that can be regenerated from those.

#![allow(dead_code)] // each test target uses its own part

use std::collections::BTreeMap;
use vfs::SpillStore;

pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `version`-th payload written under `key`: 256-byte runs of one byte
/// each, so a payload read at a wrong offset or from another write differs.
pub fn payload(key: u64, version: u64, len: usize) -> Vec<u8> {
    let mut bytes = vec![0u8; len];
    let mut rng = key ^ version.rotate_left(32);
    for run in bytes.chunks_mut(256) {
        run.fill(splitmix(&mut rng) as u8);
    }
    bytes
}

/// What the store must hold: key → (version, length) of its latest write.
pub type Model = BTreeMap<u64, (u64, usize)>;

/// Whether `store` holds exactly `model`, byte for byte.
pub fn holds(store: &SpillStore, model: &Model) -> bool {
    store
        .entries()
        .eq(model.iter().map(|(&key, &(_, len))| (key, len as u64)))
        && model
            .iter()
            .all(|(&key, &(version, len))| store.read(key).unwrap() == payload(key, version, len))
}
