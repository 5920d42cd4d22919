//! Property-style tests over the public APIs of the substrate crates.
//!
//! The cases are generated from a seeded [`ChaCha8Rng`] so every run
//! exercises the same deterministic input distribution; each loop plays
//! the role the proptest strategies used to.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use sirius_dcsim::queue::Mm1;
use sirius_nlp::regex::Regex;
use sirius_nlp::stemmer;
use sirius_search::tokenize;
use sirius_speech::features::{fft, hz_to_mel, mel_to_hz};
use sirius_speech::lexicon::{normalize_text, number_to_words};
use sirius_vision::ann::{nearest2, neighbor_order, Neighbor};
use sirius_vision::image::GrayImage;
use sirius_vision::integral::IntegralImage;

const CASES: usize = 192;

fn lowercase_word(rng: &mut ChaCha8Rng, min: usize, max: usize) -> String {
    let len = rng.gen_range(min..=max);
    (0..len)
        .map(|_| (b'a' + rng.gen_range(0u8..26)) as char)
        .collect()
}

fn text_from(rng: &mut ChaCha8Rng, alphabet: &[char], max: usize) -> String {
    let len = rng.gen_range(0..=max);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

#[test]
fn stemmer_never_grows_words() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    for _ in 0..CASES {
        let word = lowercase_word(&mut rng, 1, 20);
        let stemmed = stemmer::stem(&word);
        assert!(stemmed.len() <= word.len(), "{word} -> {stemmed}");
        assert!(!stemmed.is_empty() || word.is_empty());
    }
}

#[test]
fn stemmer_groups_inflections() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let onset = ['b', 'c', 'd', 'f', 'g', 'm', 'p', 't'];
    let nucleus = ['a', 'e', 'i', 'o', 'u'];
    let coda = ['n', 'd', 'r', 't'];
    for _ in 0..CASES {
        // A CVC stem plus common verbal endings should collapse together.
        let stem: String = [
            onset[rng.gen_range(0..onset.len())],
            nucleus[rng.gen_range(0..nucleus.len())],
            coda[rng.gen_range(0..coda.len())],
        ]
        .iter()
        .collect();
        let base = stemmer::stem(&stem);
        for suffix in ["ed", "ing", "s"] {
            let inflected = format!("{stem}{suffix}");
            let stemmed = stemmer::stem(&inflected);
            // The stemmed form must begin with (a prefix of) the base stem.
            assert!(
                stemmed.starts_with(&base[..base.len().min(stemmed.len())]),
                "{stem}+{suffix}: {stemmed} vs {base}"
            );
        }
    }
}

#[test]
fn regex_literal_matches_containment() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let hay_alphabet: Vec<char> = ('a'..='z').chain([' ']).collect();
    for _ in 0..CASES {
        let hay = text_from(&mut rng, &hay_alphabet, 30);
        let needle = lowercase_word(&mut rng, 1, 5);
        let re = Regex::new(&needle).expect("literal pattern");
        assert_eq!(
            re.is_match(&hay),
            hay.contains(&needle),
            "/{needle}/ on {hay:?}"
        );
    }
}

#[test]
fn regex_anchored_literal_is_equality() {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    for _ in 0..CASES {
        let s = lowercase_word(&mut rng, 0, 10);
        // Mix in exact copies so the equal branch is exercised too.
        let t = if rng.gen_bool(0.3) {
            s.clone()
        } else {
            lowercase_word(&mut rng, 0, 10)
        };
        let re = Regex::new(&format!("^{s}$")).expect("anchored literal");
        assert_eq!(re.is_match(&t), s == t, "^{s}$ on {t:?}");
    }
}

#[test]
fn regex_class_matches_char_membership() {
    let re = Regex::new("[aeiou]").expect("class");
    for c in 'a'..='z' {
        assert_eq!(re.is_match(&c.to_string()), "aeiou".contains(c), "{c}");
    }
}

#[test]
fn tokenizer_output_is_lowercase_alnum() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let alphabet: Vec<char> = ('a'..='z')
        .chain('A'..='Z')
        .chain('0'..='9')
        .chain([' ', '.', ',', '!', '-', 'é', 'ß', '\t'])
        .collect();
    for _ in 0..CASES {
        let s = text_from(&mut rng, &alphabet, 60);
        for token in tokenize::tokenize(&s) {
            assert!(!token.is_empty());
            assert!(
                token.chars().all(char::is_alphanumeric),
                "{token:?} from {s:?}"
            );
            assert_eq!(token.to_lowercase(), token.clone());
        }
    }
}

#[test]
fn mel_scale_round_trips() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    for _ in 0..CASES {
        let hz = rng.gen_range(50.0f32..8000.0);
        let back = mel_to_hz(hz_to_mel(hz));
        assert!((back - hz).abs() / hz < 1e-3, "{hz} -> {back}");
    }
}

#[test]
fn fft_preserves_energy() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for _ in 0..CASES {
        let xs: Vec<f32> = (0..32).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        // Parseval: sum |x|^2 = (1/N) sum |X|^2.
        let time_energy: f32 = xs.iter().map(|x| x * x).sum();
        let mut re = xs.clone();
        let mut im = vec![0.0f32; xs.len()];
        fft(&mut re, &mut im);
        let freq_energy: f32 =
            re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum::<f32>() / xs.len() as f32;
        assert!((time_energy - freq_energy).abs() <= 1e-3 * time_energy.max(1.0));
    }
}

#[test]
fn number_to_words_is_pronounceable() {
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    for _ in 0..CASES {
        let n = rng.gen_range(0u64..10_000);
        let ordinal = rng.gen_bool(0.5);
        let words = number_to_words(n, ordinal);
        assert!(!words.is_empty(), "{n}");
        for w in &words {
            assert!(w.chars().all(|c| c.is_ascii_lowercase()), "{n}: {w}");
        }
    }
}

#[test]
fn normalize_text_is_idempotent() {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let alphabet: Vec<char> = ('a'..='z')
        .chain('A'..='Z')
        .chain('0'..='9')
        .chain([' '])
        .collect();
    for _ in 0..CASES {
        let s = text_from(&mut rng, &alphabet, 40);
        let once = normalize_text(&s);
        assert_eq!(normalize_text(&once), once.clone(), "{s:?}");
    }
}

#[test]
fn integral_image_box_sums_match_naive() {
    let mut rng = ChaCha8Rng::seed_from_u64(10);
    for _ in 0..CASES {
        let w = rng.gen_range(1usize..12);
        let h = rng.gen_range(1usize..12);
        let seed = rng.gen_range(0u32..1000);
        let data: Vec<f32> = (0..w * h)
            .map(|i| ((i as u32).wrapping_mul(seed + 1) % 97) as f32 / 97.0)
            .collect();
        let img = GrayImage::from_data(w, h, data);
        let ii = IntegralImage::new(&img);
        let naive: f64 = (0..h)
            .flat_map(|y| (0..w).map(move |x| (x, y)))
            .map(|(x, y)| f64::from(img.get(x, y)))
            .sum();
        let fast = ii.box_sum(0, 0, w as isize, h as isize);
        assert!((naive - fast).abs() < 1e-6, "{w}x{h} seed {seed}");
    }
}

#[test]
fn two_nn_scan_equals_sorted_oracle() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for case in 0..CASES {
        let n = rng.gen_range(1usize..60);
        let mut tagged: Vec<(Vec<f32>, u32)> = (0..n)
            .map(|i| {
                (
                    (0..4).map(|_| rng.gen_range(-10.0f32..10.0)).collect(),
                    i as u32,
                )
            })
            .collect();
        let query: Vec<f32> = (0..4).map(|_| rng.gen_range(-10.0f32..10.0)).collect();
        // Duplicate points under later payloads, so exact distance ties
        // must break by payload.
        for _ in 0..rng.gen_range(0usize..4) {
            let copy = tagged[rng.gen_range(0..n)].0.clone();
            tagged.push((copy, tagged.len() as u32));
        }
        // The oracle: every neighbour sorted by `neighbor_order`.
        let mut all: Vec<Neighbor> = tagged
            .iter()
            .map(|(v, payload)| Neighbor {
                distance_sq: v.iter().zip(&query).map(|(x, y)| (x - y) * (x - y)).sum(),
                payload: *payload,
            })
            .collect();
        all.sort_by(neighbor_order);
        let rows: Vec<f32> = tagged.iter().flat_map(|(v, _)| v.clone()).collect();
        let payloads: Vec<u32> = tagged.iter().map(|&(_, p)| p).collect();
        let bits = |n: Option<Neighbor>| n.map(|n| (n.distance_sq.to_bits(), n.payload));
        let [best, second] = nearest2(&rows, &payloads, &query);
        assert_eq!(bits(best), bits(all.first().copied()), "case {case}");
        assert_eq!(bits(second), bits(all.get(1).copied()), "case {case}");
    }
}

#[test]
fn mm1_latency_monotone_in_load() {
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    for _ in 0..CASES {
        let mu = rng.gen_range(0.5f64..100.0);
        let rho_lo = rng.gen_range(0.05f64..0.45);
        let q = Mm1 { mu };
        let rho_hi = rho_lo + 0.5;
        assert!(q.latency_at_load(rho_hi) > q.latency_at_load(rho_lo));
        assert!(q.latency_at_load(rho_lo) >= 1.0 / mu);
    }
}
