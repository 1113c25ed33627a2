//! Executable transforms for the functional loader.
//!
//! These operate on real byte buffers so that the multi-threaded CoorDL
//! implementation can be tested end to end: decode expands the raw buffer by
//! the dataset's decoded multiplier, the random crop/flip/jitter stages
//! consume per-(epoch, item) randomness, and the output embeds enough
//! provenance (item id, epoch, augmentation seed) for tests to verify the
//! exactly-once and fresh-randomness invariants that coordinated prep must
//! preserve.

use crate::transforms::{PrepPipeline, TransformKind};
use dataset::ItemId;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;
use std::mem;
use std::ops::Range;

/// A fully pre-processed sample ready for "GPU" consumption.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedSample {
    /// The item this sample was prepared from.
    pub item: ItemId,
    /// Epoch during which it was prepared (augmentations differ per epoch).
    pub epoch: u64,
    /// The augmentation seed actually used (for reproducibility assertions).
    pub augmentation_seed: u64,
    /// The prepared payload.
    pub data: Vec<u8>,
}

/// An executable pre-processing pipeline.
#[derive(Debug, Clone)]
pub struct ExecutablePipeline {
    pipeline: PrepPipeline,
    /// Decoded size multiplier (prepared items are 5–7× larger than raw).
    decoded_multiplier: usize,
    /// Base seed combined with `(epoch, item)` for augmentation randomness.
    seed: u64,
}

impl ExecutablePipeline {
    /// Wrap `pipeline` with a decode multiplier and augmentation seed.
    pub fn new(pipeline: PrepPipeline, decoded_multiplier: usize, seed: u64) -> Self {
        assert!(decoded_multiplier >= 1);
        ExecutablePipeline {
            pipeline,
            decoded_multiplier,
            seed,
        }
    }

    /// The declarative pipeline description.
    pub fn pipeline(&self) -> &PrepPipeline {
        &self.pipeline
    }

    /// The augmentation seed for `(epoch, item)` — deterministic, so two jobs
    /// preparing the same item in the same epoch produce identical samples,
    /// while different epochs produce different augmentations.
    pub fn augmentation_seed(&self, epoch: u64, item: ItemId) -> u64 {
        self.seed
            ^ epoch.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ item.wrapping_mul(0xE703_7ED1_A0B4_28DB)
    }

    /// Pre-process one raw item into a fresh buffer: the transforms of
    /// [`prepare_into`](Self::prepare_into) without its reservation, so the
    /// image, detection and crop-only pipelines allocate exactly the bytes
    /// they return.
    pub fn prepare(&self, epoch: u64, item: ItemId, raw: &[u8]) -> PreparedSample {
        self.transform(epoch, item, raw, Vec::new())
    }

    /// Pre-process one raw item into `buf`, whose contents are ignored: the
    /// returned sample's `data` *is* `buf`, so a consumer that hands
    /// delivered buffers back makes preparing allocate nothing.
    ///
    /// `buf` is cleared and reserved once to the sample's pre-crop upper
    /// bound — `raw.len() × multiplier` when the pipeline decodes,
    /// `raw.len()` otherwise — so on equal-sized items a buffer passed
    /// around this way is sized at its first use and never grows again,
    /// whatever the crops keep.  `raw` is never copied whole: the working
    /// buffer starts as the borrowed slice and becomes `buf` at the first
    /// transform that has to write.  A decode writes its output into `buf`,
    /// a crop of still-borrowed input only narrows the borrow (so just the
    /// window it keeps is ever copied, into `buf`), and every later
    /// transform runs in place on it.  Only a second decode, which no
    /// `PrepPipeline` constructor has, needs a buffer of its own.
    ///
    /// **Fusion rule.**  A `Decode*` immediately followed by
    /// `RandomResizedCrop` / `SsdCropWithBoxes` generates only the window the
    /// crop keeps instead of the whole decoded buffer.  The RNG stream is
    /// the unfused one: decode draws nothing, and the crop draws `keep` and
    /// `start` against the decoded length `raw.len() × multiplier`, which is
    /// known without decoding — so every later draw, and every delivered
    /// byte, is unchanged.
    pub fn prepare_into(
        &self,
        epoch: u64,
        item: ItemId,
        raw: &[u8],
        mut buf: Vec<u8>,
    ) -> PreparedSample {
        buf.clear();
        let decodes = self.pipeline.transforms.iter().any(|&t| is_decode(t));
        buf.reserve_exact(raw.len() * if decodes { self.decoded_multiplier } else { 1 });
        self.transform(epoch, item, raw, buf)
    }

    /// The one transform chain of `prepare` and `prepare_into`, writing into
    /// the empty `buf`.
    fn transform(&self, epoch: u64, item: ItemId, raw: &[u8], mut buf: Vec<u8>) -> PreparedSample {
        let aug_seed = self.augmentation_seed(epoch, item);
        let mut rng = SmallRng::seed_from_u64(aug_seed);
        let mut data = Cow::Borrowed(raw);
        let mut transforms = self.pipeline.transforms.iter().copied().peekable();
        while let Some(t) = transforms.next() {
            match t {
                TransformKind::DecodeImage | TransformKind::DecodeAudio => {
                    let decoded_len = data.len() * self.decoded_multiplier;
                    let window = match transforms.next_if(|&next| is_crop(next)) {
                        Some(_) => crop_window(decoded_len, &mut rng),
                        None => 0..decoded_len,
                    };
                    // `buf` is untouched while `data` still borrows `raw`.
                    let mut out = match data {
                        Cow::Borrowed(_) => mem::take(&mut buf),
                        Cow::Owned(_) => Vec::new(),
                    };
                    decode_window(&data, window, &mut out);
                    data = Cow::Owned(out);
                }
                TransformKind::RandomResizedCrop | TransformKind::SsdCropWithBoxes => {
                    let window = crop_window(data.len(), &mut rng);
                    match &mut data {
                        Cow::Borrowed(input) => *input = &input[window],
                        Cow::Owned(buf) => {
                            buf.copy_within(window.clone(), 0);
                            buf.truncate(window.len());
                        }
                    }
                }
                TransformKind::RandomFlip => {
                    if rng.gen_bool(0.5) {
                        owned(&mut data, &mut buf).reverse();
                    }
                }
                TransformKind::ColorJitter | TransformKind::AudioAugment => {
                    let delta: u8 = rng.gen();
                    map_bytes(&mut data, &mut buf, |b| b.wrapping_add(delta));
                }
                TransformKind::ResampleAudio => {
                    // Drop every 4th byte (down-sample) — deterministic.
                    let mut index = 0usize;
                    owned(&mut data, &mut buf).retain(|_| {
                        let keep = index % 4 != 3;
                        index += 1;
                        keep
                    });
                }
                TransformKind::Tokenize => {
                    // "Tokenise": fold each 4-byte window into one subword id —
                    // deterministic, like a real tokeniser.  Token `i` is
                    // written at or before the first byte it was read from.
                    let bytes = owned(&mut data, &mut buf);
                    let tokens = bytes.len().div_ceil(4);
                    for i in 0..tokens {
                        let end = (4 * i + 4).min(bytes.len());
                        bytes[i] = bytes[4 * i..end]
                            .iter()
                            .fold(0u8, |acc, &b| acc.wrapping_mul(31).wrapping_add(b));
                    }
                    bytes.truncate(tokens);
                }
                TransformKind::MaskTokens => {
                    // BERT-style MLM masking: replace ~15 % of tokens with a mask
                    // marker, re-drawn every epoch.
                    map_bytes(&mut data, &mut buf, |b| {
                        if rng.gen_bool(0.15) {
                            0xFF
                        } else {
                            b
                        }
                    });
                }
                TransformKind::NormalizeToTensor => {
                    // Byte-wise "normalisation": subtract the running mean.
                    if !data.is_empty() {
                        let sum = data.iter().map(|&b| b as u64).sum::<u64>();
                        let mean = (sum / data.len() as u64) as u8;
                        map_bytes(&mut data, &mut buf, |b| b.wrapping_sub(mean));
                    }
                }
            }
        }
        owned(&mut data, &mut buf);
        let Cow::Owned(data) = data else {
            unreachable!("`owned` leaves the working buffer owned")
        };
        PreparedSample {
            item,
            epoch,
            augmentation_seed: aug_seed,
            data,
        }
    }
}

fn is_decode(t: TransformKind) -> bool {
    matches!(t, TransformKind::DecodeImage | TransformKind::DecodeAudio)
}

fn is_crop(t: TransformKind) -> bool {
    matches!(
        t,
        TransformKind::RandomResizedCrop | TransformKind::SsdCropWithBoxes
    )
}

/// The random contiguous 50–100 % window (never empty) a crop keeps of a
/// buffer of `len` bytes; an empty buffer stays empty and draws nothing.
fn crop_window(len: usize, rng: &mut SmallRng) -> Range<usize> {
    if len == 0 {
        return 0..0;
    }
    let keep = rng.gen_range(len / 2..=len).max(1);
    let start = rng.gen_range(0..=len - keep);
    start..start + keep
}

/// "Decode": byte `i` of the decoded buffer is `input[i % n] + i / n` — the
/// input repeated once per unit of the decoded multiplier with a cheap
/// byte-mixing expansion (stand-in for entropy decode).  Generates only
/// `window` of that buffer, appended to the empty `out`, one slice-to-slice
/// loop per repetition it touches.
fn decode_window(input: &[u8], window: Range<usize>, out: &mut Vec<u8>) {
    out.reserve_exact(window.len());
    if window.is_empty() {
        return;
    }
    let n = input.len();
    for rep in window.start / n..=(window.end - 1) / n {
        let lo = window.start.max(rep * n) - rep * n;
        let hi = window.end.min((rep + 1) * n) - rep * n;
        out.extend(input[lo..hi].iter().map(|b| b.wrapping_add(rep as u8)));
    }
}

/// The working buffer as an owned `Vec` to transform in place: still
/// borrowed input is first copied into the empty `buf`, which becomes it.
fn owned<'d>(data: &'d mut Cow<'_, [u8]>, buf: &mut Vec<u8>) -> &'d mut Vec<u8> {
    if let Cow::Borrowed(input) = *data {
        buf.reserve_exact(input.len());
        buf.extend_from_slice(input);
        *data = Cow::Owned(mem::take(buf));
    }
    data.to_mut()
}

/// Replace every byte by `f(byte)`, front to back: in place when the buffer
/// is owned, in the one pass that copies it into `buf` when it is still
/// borrowed.
fn map_bytes(data: &mut Cow<'_, [u8]>, buf: &mut Vec<u8>, mut f: impl FnMut(u8) -> u8) {
    match data {
        Cow::Borrowed(input) => {
            buf.reserve_exact(input.len());
            buf.extend(input.iter().map(|&b| f(b)));
            *data = Cow::Owned(mem::take(buf));
        }
        Cow::Owned(bytes) => bytes.iter_mut().for_each(|b| *b = f(*b)),
    }
}

#[cfg(test)]
impl ExecutablePipeline {
    /// The transform chain as it was before `prepare` worked in place: copy
    /// `raw`, then thread a by-value `Vec` through one arm per transform.
    /// Kept verbatim as the reference `prepare` is proptested against.
    fn prepare_reference(&self, epoch: u64, item: ItemId, raw: &[u8]) -> PreparedSample {
        let aug_seed = self.augmentation_seed(epoch, item);
        let mut rng = SmallRng::seed_from_u64(aug_seed);
        let mut data = raw.to_vec();
        for t in &self.pipeline.transforms {
            data = self.apply_reference(*t, data, &mut rng);
        }
        PreparedSample {
            item,
            epoch,
            augmentation_seed: aug_seed,
            data,
        }
    }

    fn apply_reference(&self, t: TransformKind, input: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
        match t {
            TransformKind::DecodeImage | TransformKind::DecodeAudio => {
                let mut out = Vec::with_capacity(input.len() * self.decoded_multiplier);
                for rep in 0..self.decoded_multiplier {
                    out.extend(input.iter().map(|b| b.wrapping_add(rep as u8)));
                }
                out
            }
            TransformKind::RandomResizedCrop | TransformKind::SsdCropWithBoxes => {
                if input.is_empty() {
                    return input;
                }
                let len = input.len();
                let keep = rng.gen_range(len / 2..=len).max(1);
                let start = rng.gen_range(0..=len - keep);
                input[start..start + keep].to_vec()
            }
            TransformKind::RandomFlip => {
                if rng.gen_bool(0.5) {
                    input.into_iter().rev().collect()
                } else {
                    input
                }
            }
            TransformKind::ColorJitter | TransformKind::AudioAugment => {
                let delta: u8 = rng.gen();
                input.into_iter().map(|b| b.wrapping_add(delta)).collect()
            }
            TransformKind::ResampleAudio => input
                .into_iter()
                .enumerate()
                .filter(|(i, _)| i % 4 != 3)
                .map(|(_, b)| b)
                .collect(),
            TransformKind::Tokenize => input
                .chunks(4)
                .map(|c| {
                    c.iter()
                        .fold(0u8, |acc, &b| acc.wrapping_mul(31).wrapping_add(b))
                })
                .collect(),
            TransformKind::MaskTokens => input
                .into_iter()
                .map(|b| if rng.gen_bool(0.15) { 0xFF } else { b })
                .collect(),
            TransformKind::NormalizeToTensor => {
                if input.is_empty() {
                    return input;
                }
                let mean =
                    (input.iter().map(|&b| b as u64).sum::<u64>() / input.len() as u64) as u8;
                input.into_iter().map(|b| b.wrapping_sub(mean)).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pipeline() -> ExecutablePipeline {
        ExecutablePipeline::new(PrepPipeline::image_classification(), 6, 42)
    }

    #[test]
    fn prepare_is_deterministic_for_same_epoch_and_item() {
        let p = pipeline();
        let raw = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let a = p.prepare(3, 10, &raw);
        let b = p.prepare(3, 10, &raw);
        assert_eq!(a, b);
    }

    #[test]
    fn different_epochs_produce_different_augmentations() {
        let p = pipeline();
        let raw: Vec<u8> = (0..=255).collect();
        let a = p.prepare(0, 5, &raw);
        let b = p.prepare(1, 5, &raw);
        assert_ne!(
            a.data, b.data,
            "random transforms must be re-drawn every epoch"
        );
        assert_ne!(a.augmentation_seed, b.augmentation_seed);
    }

    #[test]
    fn decode_expands_by_multiplier() {
        let p = ExecutablePipeline::new(
            PrepPipeline {
                name: "decode-only".into(),
                transforms: vec![TransformKind::DecodeImage],
            },
            6,
            0,
        );
        let raw = vec![9u8; 100];
        let out = p.prepare(0, 0, &raw);
        assert_eq!(out.data.len(), 600);
    }

    #[test]
    fn crop_keeps_between_half_and_all() {
        let p = ExecutablePipeline::new(
            PrepPipeline {
                name: "crop-only".into(),
                transforms: vec![TransformKind::RandomResizedCrop],
            },
            1,
            7,
        );
        let raw: Vec<u8> = (0..100).collect();
        for epoch in 0..20 {
            let out = p.prepare(epoch, 1, &raw);
            assert!(out.data.len() >= 50 && out.data.len() <= 100);
        }
    }

    #[test]
    fn prepared_sample_carries_provenance() {
        let p = pipeline();
        let s = p.prepare(2, 77, &[1, 2, 3, 4]);
        assert_eq!(s.item, 77);
        assert_eq!(s.epoch, 2);
        assert_eq!(s.augmentation_seed, p.augmentation_seed(2, 77));
    }

    #[test]
    fn audio_pipeline_runs() {
        let p = ExecutablePipeline::new(PrepPipeline::audio_classification(), 5, 1);
        let raw = vec![7u8; 64];
        let out = p.prepare(0, 0, &raw);
        assert!(!out.data.is_empty());
    }

    #[test]
    fn two_pipelines_with_same_seed_agree_across_jobs() {
        // Coordinated prep relies on this: whichever job prepares the item,
        // the result is the same as long as the (epoch, item) seed matches.
        let a = pipeline();
        let b = pipeline();
        let raw: Vec<u8> = (0..64).collect();
        assert_eq!(a.prepare(4, 9, &raw), b.prepare(4, 9, &raw));
    }

    const ALL_TRANSFORMS: [TransformKind; 11] = [
        TransformKind::DecodeImage,
        TransformKind::RandomResizedCrop,
        TransformKind::RandomFlip,
        TransformKind::ColorJitter,
        TransformKind::NormalizeToTensor,
        TransformKind::DecodeAudio,
        TransformKind::ResampleAudio,
        TransformKind::AudioAugment,
        TransformKind::SsdCropWithBoxes,
        TransformKind::Tokenize,
        TransformKind::MaskTokens,
    ];

    fn crop_only() -> PrepPipeline {
        PrepPipeline {
            name: "crop-only".into(),
            transforms: vec![TransformKind::RandomResizedCrop],
        }
    }

    /// Every `PrepPipeline` constructor, the orders the fusion rule must not
    /// mistake for decode-then-crop, and an arbitrary order drawn from `rng`.
    fn pipelines_under_test(rng: &mut TestRng) -> Vec<PrepPipeline> {
        use TransformKind::*;
        let mut out = vec![
            PrepPipeline::image_classification(),
            PrepPipeline::object_detection(),
            PrepPipeline::audio_classification(),
            PrepPipeline::language_model(),
            crop_only(),
        ];
        let orders: [&[TransformKind]; 6] = [
            &[],
            &[RandomResizedCrop, DecodeImage],
            &[DecodeImage, RandomResizedCrop, SsdCropWithBoxes],
            &[RandomFlip, DecodeAudio, SsdCropWithBoxes, DecodeImage],
            &[DecodeImage, RandomFlip, RandomResizedCrop],
            &[RandomResizedCrop, RandomResizedCrop, ColorJitter],
        ];
        for order in orders {
            out.push(PrepPipeline {
                name: "fixed-order".into(),
                transforms: order.to_vec(),
            });
        }
        let len = (0usize..=6).sample(rng);
        out.push(PrepPipeline {
            name: "arbitrary-order".into(),
            transforms: (0..len)
                .map(|_| ALL_TRANSFORMS[(0..ALL_TRANSFORMS.len()).sample(rng)])
                .collect(),
        });
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn prepare_is_byte_identical_to_the_by_value_reference(
            multiplier in 1usize..=33,
            raw_len in 0usize..=4096,
            tiny_len in 0usize..=3,
            seed in 0u64..=u64::MAX,
            epoch in 0u64..=u64::MAX,
            item in 0u64..=u64::MAX,
            shape in 0u64..=u64::MAX,
        ) {
            let mut rng = TestRng::new(shape);
            let bytes: Vec<u8> = (0..raw_len).map(|_| rng.next_u64() as u8).collect();
            let pipelines = pipelines_under_test(&mut rng);
            let tiny = &bytes[..tiny_len.min(raw_len)];
            for (pipeline, raw) in pipelines.iter().flat_map(|p| [(p, &bytes[..]), (p, tiny)]) {
                let exact = matches!(
                    pipeline.name.as_str(),
                    "image-classification" | "object-detection" | "crop-only"
                );
                let p = ExecutablePipeline::new(pipeline.clone(), multiplier, seed);
                let reference = p.prepare_reference(epoch, item, raw);
                let got = p.prepare(epoch, item, raw);
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{:?} x{} on {} raw bytes",
                    p.pipeline().transforms,
                    multiplier,
                    raw.len()
                );
                // A recycled buffer of any size, full of a previous
                // sample's bytes: none of them may show through.
                let poisoned = vec![0xA5; (0..=2 * reference.data.len()).sample(&mut rng)];
                prop_assert_eq!(
                    &p.prepare_into(epoch, item, raw, poisoned),
                    &reference,
                    "{:?} x{} into a poisoned buffer",
                    p.pipeline().transforms,
                    multiplier
                );
                if exact {
                    prop_assert_eq!(
                        got.data.capacity(),
                        got.data.len(),
                        "{}: one allocation of exactly the delivered bytes",
                        p.pipeline().name
                    );
                }
            }
        }
    }

    #[test]
    fn fused_decode_generates_any_window_of_the_full_decode() {
        let decode = |input: &[u8], window| {
            let mut out = Vec::new();
            decode_window(input, window, &mut out);
            out
        };
        let input: Vec<u8> = (0..7u8).map(|i| i.wrapping_mul(37)).collect();
        let full = decode(&input, 0..input.len() * 5);
        assert_eq!(full.len(), 35);
        for start in 0..full.len() {
            for end in start..=full.len() {
                assert_eq!(decode(&input, start..end), full[start..end]);
            }
        }
        assert!(decode(&[], 0..0).is_empty());
    }

    #[test]
    fn a_buffer_passed_around_is_reserved_to_the_pre_crop_bound_once() {
        let p = pipeline(); // image classification, decode x6
        let raw: Vec<u8> = (0..100).collect();
        let mut buf = p.prepare_into(0, 1, &raw, Vec::new()).data;
        assert_eq!(
            buf.capacity(),
            600,
            "raw x multiplier, whatever the crop kept"
        );
        let ptr = buf.as_ptr();
        for epoch in 1..20 {
            buf = p.prepare_into(epoch, 1, &raw, buf).data;
            assert_eq!(
                (buf.as_ptr(), buf.capacity()),
                (ptr, 600),
                "never grows again"
            );
        }
        let crop = ExecutablePipeline::new(crop_only(), 6, 42);
        let buf = crop.prepare_into(0, 1, &raw, Vec::new()).data;
        assert_eq!(buf.capacity(), 100, "no decode: the raw length");
    }
}
