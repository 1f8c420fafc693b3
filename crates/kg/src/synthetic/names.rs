//! Deterministic name fabrication for the synthetic world.
//!
//! Labels are built from fixed word lists combined by index arithmetic plus a
//! seeded RNG for tie-breaking, so the same configuration always produces the
//! same labels while still giving BM25 a realistically diverse vocabulary.

use rand::rngs::StdRng;
use rand::Rng;

pub const FIRST_NAMES: &[&str] = &[
    "James", "Mary", "Robert", "Patricia", "John", "Jennifer", "Michael", "Linda", "David",
    "Elena", "William", "Sofia", "Richard", "Amara", "Joseph", "Yuki", "Thomas", "Priya", "Carlos",
    "Ingrid", "Mateo", "Aisha", "Henrik", "Chen", "Dmitri", "Fatima", "Kwame", "Saoirse", "Rafael",
    "Mei", "Omar", "Astrid", "Luca", "Zara", "Viktor", "Noor", "Diego", "Hana", "Emil", "Leila",
    "Marco", "Freya", "Ivan", "Carmen", "Tariq", "Signe", "Pavel", "Rosa", "Andre", "Kiran",
];

pub const SURNAMES: &[&str] = &[
    "Smith",
    "Johnson",
    "Garcia",
    "Miller",
    "Davis",
    "Rodriguez",
    "Martinez",
    "Hernandez",
    "Lopez",
    "Gonzalez",
    "Wilson",
    "Anderson",
    "Thomas",
    "Taylor",
    "Moore",
    "Jackson",
    "Petrov",
    "Nakamura",
    "Okafor",
    "Lindqvist",
    "Haddad",
    "Kovacs",
    "Novak",
    "Silva",
    "Costa",
    "Fischer",
    "Weber",
    "Rossi",
    "Ferrari",
    "Tanaka",
    "Suzuki",
    "Kimura",
    "Patel",
    "Singh",
    "Kumar",
    "Ahmed",
    "Hassan",
    "Dubois",
    "Moreau",
    "Larsen",
    "Nielsen",
    "Berg",
    "Holm",
    "Virtanen",
    "Korhonen",
    "Papadopoulos",
    "Dimitriou",
    "Yilmaz",
    "Kaya",
    "Steele",
];

pub const SPORTS: &[&str] = &["basketball", "cricket", "association football", "tennis"];

/// (full name, abbreviation) per sport, aligned with [`SPORTS`].
pub const POSITIONS: &[&[(&str, &str)]] = &[
    &[
        ("Point guard", "PG"),
        ("Shooting guard", "SG"),
        ("Small forward", "SF"),
        ("Power forward", "PF"),
        ("Center", "C"),
    ],
    &[
        ("Batsman", "BAT"),
        ("Bowler", "BWL"),
        ("Wicket-keeper", "WK"),
        ("All-rounder", "AR"),
    ],
    &[
        ("Goalkeeper", "GK"),
        ("Defender", "DF"),
        ("Midfielder", "MF"),
        ("Striker", "ST"),
    ],
    &[("Singles player", "SGL"), ("Doubles player", "DBL")],
];

pub const GENRES: &[&str] = &[
    "rock",
    "jazz",
    "gothic metal",
    "pop",
    "folk",
    "electronic",
    "hip hop",
    "classical",
    "blues",
    "drama",
    "comedy",
    "thriller",
    "documentary",
    "science fiction",
];

pub const LANGUAGES: &[&str] = &[
    "English",
    "Spanish",
    "Mandarin",
    "Hindi",
    "Arabic",
    "Portuguese",
    "Russian",
    "Japanese",
    "German",
    "French",
];

pub const AWARDS: &[&str] = &[
    "Golden Lion Award",
    "Silver Harp Prize",
    "National Medal of Science",
    "Continental Player Trophy",
    "Crystal Quill Prize",
    "Platinum Record Award",
];

pub const TEAM_SUFFIXES: &[&str] = &[
    "Hawks",
    "Tigers",
    "Rovers",
    "United",
    "Wanderers",
    "Giants",
    "Royals",
    "Comets",
    "Pioneers",
    "Mariners",
];

pub const STADIUM_SUFFIXES: &[&str] = &["Arena", "Stadium", "Park", "Field", "Dome"];

pub const PARTY_ADJECTIVES: &[&str] = &[
    "Progressive",
    "Conservative",
    "Liberal",
    "National",
    "Democratic",
    "Republican",
    "Green",
    "Labour",
    "Unity",
    "Reform",
];

const COUNTRY_PREFIX: &[&str] = &[
    "Nor", "Vel", "Ash", "Kor", "Bel", "Dor", "Mar", "Tal", "Zan", "Est", "Gal", "Hal", "Ild",
    "Jor", "Kal", "Lor", "Mon", "Ond",
];
const COUNTRY_SUFFIX: &[&str] = &["dovia", "land", "mark", "stan", "onia", "avia"];

const CITY_PARTS_A: &[&str] = &[
    "Spring", "River", "Oak", "Lake", "Stone", "Bright", "Fair", "Green", "Silver", "North",
    "East", "West", "Harbor", "Mill", "Cedar", "Maple",
];
const CITY_PARTS_B: &[&str] = &[
    "field", "ton", "ville", "burg", "haven", "port", "ford", "dale", "wood", "bridge",
];

const WORK_ADJ: &[&str] = &[
    "Silent",
    "Crimson",
    "Endless",
    "Broken",
    "Golden",
    "Midnight",
    "Distant",
    "Hollow",
    "Burning",
    "Frozen",
    "Electric",
    "Velvet",
    "Shattered",
    "Hidden",
    "Rust",
    "Iron",
];
const WORK_NOUN: &[&str] = &[
    "Horizon", "Echo", "Garden", "Winter", "Mirror", "Empire", "Voyage", "Harvest", "Signal",
    "Monument", "Tides", "Lantern", "Orchard", "Parallel", "Reverie", "Cascade",
];

const BAND_NOUN: &[&str] = &[
    "Serpents",
    "Owls",
    "Prophets",
    "Machines",
    "Shadows",
    "Architects",
    "Wolves",
    "Saints",
    "Harbingers",
    "Corsairs",
];

const MOUNTAIN_NAMES: &[&str] = &[
    "Kestrel", "Aurora", "Basalt", "Cinder", "Drake", "Ember", "Frost", "Granite", "Hollow",
    "Ivory",
];

const RIVER_NAMES: &[&str] = &[
    "Aldan", "Brine", "Corven", "Dusk", "Ebon", "Fenwick", "Glen", "Hazel", "Isen", "Juniper",
];

const GENE_PREFIX: &[&str] = &[
    "BRC", "TP", "MYC", "KRA", "EGF", "CDK", "SOX", "FOX", "HOX", "RAS",
];

const PROTEIN_GREEK: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "kappa", "sigma", "omega", "theta",
];

/// Surname for an index (cycles the surname list).
pub fn surname(i: usize) -> &'static str {
    SURNAMES[i % SURNAMES.len()]
}

/// Deterministic person name for an index, with RNG-driven middle initials
/// to diversify collisions. A small fraction of names intentionally collide
/// (same first/last combination) to exercise disambiguation.
pub fn person_name(i: usize, rng: &mut StdRng) -> String {
    let first = FIRST_NAMES[i % FIRST_NAMES.len()];
    let last = SURNAMES[(i / FIRST_NAMES.len() + i) % SURNAMES.len()];
    if rng.gen_bool(0.15) {
        let middle = (b'A' + (i % 26) as u8) as char;
        format!("{first} {middle}. {last}")
    } else {
        format!("{first} {last}")
    }
}

/// Country name for an index.
pub fn country_name(i: usize) -> String {
    let p = COUNTRY_PREFIX[i % COUNTRY_PREFIX.len()];
    let s = COUNTRY_SUFFIX[(i / COUNTRY_PREFIX.len()) % COUNTRY_SUFFIX.len()];
    format!("{p}{s}")
}

/// City name for an index.
pub fn city_name(i: usize, rng: &mut StdRng) -> String {
    let a = CITY_PARTS_A[i % CITY_PARTS_A.len()];
    let b = CITY_PARTS_B[(i / CITY_PARTS_A.len()) % CITY_PARTS_B.len()];
    if rng.gen_bool(0.1) {
        format!("New {a}{b}")
    } else {
        format!("{a}{b}")
    }
}

/// Roman numeral for small disambiguation indices. Entity labels must not
/// contain bare digit tokens: digit tokens would collide with numeric cell
/// content (apartment numbers, code suffixes) in BM25 and create spurious
/// linkage for otherwise-unlinkable columns.
fn roman(n: usize) -> &'static str {
    const NUMERALS: [&str; 12] = [
        "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII",
    ];
    NUMERALS[(n - 1).min(NUMERALS.len() - 1)]
}

/// Mountain name.
pub fn mountain_name(i: usize, rng: &mut StdRng) -> String {
    let base = MOUNTAIN_NAMES[i % MOUNTAIN_NAMES.len()];
    if rng.gen_bool(0.5) {
        format!("Mount {base}")
    } else {
        format!("{base} Peak {}", roman(i / MOUNTAIN_NAMES.len() + 1))
    }
}

/// River name.
pub fn river_name(i: usize, _rng: &mut StdRng) -> String {
    let base = RIVER_NAMES[i % RIVER_NAMES.len()];
    if i < RIVER_NAMES.len() {
        format!("{base} River")
    } else {
        format!("{base} River {}", roman(i / RIVER_NAMES.len() + 1))
    }
}

/// Company name.
pub fn company_name(i: usize, rng: &mut StdRng) -> String {
    let a = WORK_ADJ[i % WORK_ADJ.len()];
    let b = BAND_NOUN[(i / WORK_ADJ.len()) % BAND_NOUN.len()];
    let suffix = if rng.gen_bool(0.5) {
        "Industries"
    } else {
        "Group"
    };
    format!("{a} {b} {suffix}")
}

/// Band name ("The Velvet Owls" style).
pub fn band_name(i: usize, rng: &mut StdRng) -> String {
    let a = WORK_ADJ[(i * 7 + 3) % WORK_ADJ.len()];
    let b = BAND_NOUN[i % BAND_NOUN.len()];
    if rng.gen_bool(0.6) {
        format!("The {a} {b}")
    } else {
        format!("{a} {b}")
    }
}

/// Creative-work title; `kind` seeds the pattern choice so albums, films and
/// books draw from the same vocabulary without always colliding.
pub fn work_name(i: usize, kind: &str, rng: &mut StdRng) -> String {
    let a = WORK_ADJ[(i + kind.len()) % WORK_ADJ.len()];
    let b = WORK_NOUN[(i / WORK_ADJ.len() + kind.len() * 3) % WORK_NOUN.len()];
    match i % 4 {
        0 => a.to_string(),
        1 => format!("{a} {b}"),
        2 => format!("The {b}"),
        _ => {
            if rng.gen_bool(0.5) {
                format!("{b} of {a}")
            } else {
                format!("{a} {b} II")
            }
        }
    }
}

/// Scholarly article title.
pub fn article_title(i: usize, _rng: &mut StdRng) -> String {
    let a = WORK_ADJ[(i * 3) % WORK_ADJ.len()];
    let b = WORK_NOUN[(i * 5 + 2) % WORK_NOUN.len()];
    format!("On the {a} {b}: a survey")
}

/// Gene symbol ("BRC1A"-style).
pub fn gene_symbol(i: usize) -> String {
    let p = GENE_PREFIX[i % GENE_PREFIX.len()];
    format!("{p}{}", i / GENE_PREFIX.len() + 1)
}

/// Protein name.
pub fn protein_name(i: usize, rng: &mut StdRng) -> String {
    let greek = PROTEIN_GREEK[i % PROTEIN_GREEK.len()];
    let noun = WORK_NOUN[(i * 11) % WORK_NOUN.len()];
    if rng.gen_bool(0.5) {
        format!("{greek}-{} synthase", noun.to_lowercase())
    } else {
        format!("{} {greek} subunit", noun.to_lowercase())
    }
}

/// Derive an alias for a label: initials, truncation, or an uppercase code.
pub fn alias_of(label: &str, rng: &mut StdRng) -> String {
    let words: Vec<&str> = label.split_whitespace().collect();
    match rng.gen_range(0..3u8) {
        0 if words.len() >= 2 => {
            // "P. Steele" style.
            let mut out = String::new();
            for w in &words[..words.len() - 1] {
                out.push(w.chars().next().unwrap_or('X'));
                out.push_str(". ");
            }
            out.push_str(words[words.len() - 1]);
            out
        }
        1 => {
            // Uppercase initialism: "University of Oakton" -> "UOO".
            words
                .iter()
                .filter_map(|w| w.chars().next())
                .map(|c| c.to_ascii_uppercase())
                .collect()
        }
        _ => {
            // First word only.
            words.first().copied().unwrap_or(label).to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    #[test]
    fn person_names_cycle_through_lists() {
        let mut r = rng();
        let n0 = person_name(0, &mut r);
        let n1 = person_name(1, &mut r);
        assert_ne!(n0, n1);
        assert!(n0.contains(' '));
    }

    #[test]
    fn country_names_are_unique_for_small_indices() {
        let names: Vec<String> = (0..18).map(country_name).collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }

    #[test]
    fn gene_symbols_look_like_genes() {
        assert_eq!(gene_symbol(0), "BRC1");
        assert_eq!(gene_symbol(10), "BRC2");
    }

    #[test]
    fn alias_is_derived_from_label() {
        let mut r = rng();
        for _ in 0..20 {
            let alias = alias_of("Peter Steele", &mut r);
            assert!(!alias.is_empty());
        }
    }

    #[test]
    fn positions_align_with_sports() {
        assert_eq!(SPORTS.len(), POSITIONS.len());
        // The paper's own example: "PF" stands for Power Forward.
        assert!(POSITIONS[0]
            .iter()
            .any(|&(f, a)| f == "Power forward" && a == "PF"));
    }

    #[test]
    fn work_names_vary_by_pattern() {
        let mut r = rng();
        let titles: Vec<String> = (0..8).map(|i| work_name(i, "album", &mut r)).collect();
        let mut dedup = titles.clone();
        dedup.sort();
        dedup.dedup();
        assert!(
            dedup.len() >= 6,
            "titles should be mostly distinct: {titles:?}"
        );
    }
}
