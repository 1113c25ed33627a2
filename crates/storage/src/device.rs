//! A storage device with cumulative I/O accounting.

use crate::profiles::DeviceProfile;
use simkit::{SimTime, TimeSeries};

/// Whether a read is part of a sequential scan or a random small-file read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// Large, contiguous reads (TFRecord chunks, DALI-seq file order).
    Sequential,
    /// Small random reads (shuffled file-per-item access).
    Random,
}

/// A storage device instance: a [`DeviceProfile`] plus counters and an
/// optional per-read time series used for the disk-I/O-over-time figure.
#[derive(Debug, Clone)]
pub struct StorageDevice {
    profile: DeviceProfile,
    bytes_read: u64,
    read_requests: u64,
    timeline: TimeSeries,
}

impl StorageDevice {
    /// Create a device from a profile.
    pub fn new(profile: DeviceProfile) -> Self {
        StorageDevice {
            profile,
            bytes_read: 0,
            read_requests: 0,
            timeline: TimeSeries::new(),
        }
    }

    /// The device's static profile.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Perform a read of `bytes` at virtual time `at`, returning the time the
    /// read takes in isolation (contention is modelled by the caller, which
    /// may divide the device bandwidth among concurrent jobs).
    pub fn read(&mut self, at: SimTime, bytes: u64, pattern: AccessPattern) -> SimTime {
        let secs = self.profile.read_seconds(bytes, pattern);
        self.bytes_read += bytes;
        self.read_requests += 1;
        self.timeline.push(at, bytes as f64);
        SimTime::from_secs(secs)
    }

    /// Total bytes read from the device since construction or the last reset.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Number of read requests issued.
    pub fn read_requests(&self) -> u64 {
        self.read_requests
    }

    /// Per-read `(time, bytes)` series, for I/O-pattern plots.
    pub fn timeline(&self) -> &TimeSeries {
        &self.timeline
    }

    /// Reset counters and the timeline (e.g. between experiments).
    pub fn reset_counters(&mut self) {
        self.bytes_read = 0;
        self.read_requests = 0;
        self.timeline = TimeSeries::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_accumulates_counters() {
        let mut d = StorageDevice::new(DeviceProfile::sata_ssd());
        let t = d.read(SimTime::ZERO, 530_000_000, AccessPattern::Random);
        assert!((t.as_secs() - 1.0).abs() < 0.01);
        d.read(SimTime::from_secs(1.0), 1_000, AccessPattern::Random);
        assert_eq!(d.bytes_read(), 530_001_000);
        assert_eq!(d.read_requests(), 2);
        assert_eq!(d.timeline().len(), 2);
    }

    #[test]
    fn hdd_random_reads_are_much_slower_than_sequential() {
        let mut d = StorageDevice::new(DeviceProfile::hdd());
        let rand = d.read(SimTime::ZERO, 10_000_000, AccessPattern::Random);
        let seq = d.read(SimTime::ZERO, 10_000_000, AccessPattern::Sequential);
        assert!(rand.as_secs() > 5.0 * seq.as_secs());
    }

    #[test]
    fn reset_clears_counters() {
        let mut d = StorageDevice::new(DeviceProfile::hdd());
        d.read(SimTime::ZERO, 1000, AccessPattern::Random);
        d.reset_counters();
        assert_eq!(d.bytes_read(), 0);
        assert_eq!(d.read_requests(), 0);
        assert!(d.timeline().is_empty());
    }
}
