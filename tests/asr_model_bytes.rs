//! The trained ASR model, pinned.
//!
//! `AsrSystem::train` on the 42 query texts with the default recipe is
//! deterministic in its seed; this pins the length and FNV-1a-64 hash of
//! its serialized bytes at three seeds. The DNN's SGD step runs on the
//! batched GEMM kernel, and a kernel or training change that reorders any
//! floating-point sum moves these bytes: if this test needs editing, the
//! change's summation order is wrong.

use sirius::pipeline::SiriusConfig;
use sirius_speech::asr::{AsrSystem, AsrTrainConfig};

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn trained_model_bytes_are_pinned() {
    let texts: Vec<&str> = sirius::input_set().iter().map(|q| q.text).collect();
    let pinned = [
        (SiriusConfig::default().seed, 213_160, 0xe7e9_f3b1_b868_eac7),
        (1, 213_592, 0xa2ca_1d4e_132e_b613),
        (77, 213_808, 0x3f61_2801_033b_9f31),
    ];
    for (seed, len, hash) in pinned {
        let bytes = AsrSystem::train(&texts, seed, AsrTrainConfig::default()).to_bytes();
        assert_eq!(bytes.len(), len, "seed {seed}: model length");
        assert_eq!(fnv1a64(&bytes), hash, "seed {seed}: model hash");
    }
}
