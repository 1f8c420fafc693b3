//! Deterministic synthetic "world" generator.
//!
//! The reproduction cannot ship WikiData, so this module generates a small
//! world with the same *structural* properties the KGLink pipeline depends
//! on:
//!
//! * multi-level type hierarchies (`Person ⊃ Athlete ⊃ Basketball player`),
//!   so candidate types exist at several granularities;
//! * relation-rich instances, so the one-hop-intersection filter (paper
//!   Eq. 3) has real signal: an athlete and their team are one-hop neighbors,
//!   exactly like `Rust` (album) and `Peter Steele` in the paper's Figure 5;
//! * aliases and label collisions, so BM25 retrieval is ambiguous enough to
//!   need the structure-based filters;
//! * deliberate coverage holes (`missing_type_prob`), producing entities
//!   whose `instance of` edge is absent — the "incorrect or missing entity
//!   linkages" the paper calls out;
//! * numeric facts (birth years, populations, ratings, …) that live outside
//!   the graph, since numbers are not linkable entities.
//!
//! Everything is seeded: the same [`WorldConfig`] yields the same world.

use crate::builder::KgBuilder;
use crate::entity::{Entity, EntityId, NeSchema};
use crate::graph::KnowledgeGraph;
use crate::predicates as P;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

mod names;

/// Configuration of the synthetic world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// RNG seed; everything else is a pure function of the config.
    pub seed: u64,
    /// Global size multiplier. `1.0` yields roughly 4–5k entities.
    pub scale: f64,
    /// Probability that an instance gets an alias (nickname/abbreviation).
    pub alias_prob: f64,
    /// Probability that an instance is created *without* its `instance of`
    /// edge, simulating KG coverage holes.
    pub missing_type_prob: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            seed: 7,
            scale: 1.0,
            alias_prob: 0.25,
            missing_type_prob: 0.04,
        }
    }
}

impl WorldConfig {
    /// A tiny world for unit tests (~300 entities).
    pub fn tiny(seed: u64) -> Self {
        WorldConfig {
            seed,
            scale: 0.08,
            ..Self::default()
        }
    }

    fn scaled(&self, n: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(2)
    }
}

/// Ids of the frequently used type entities.
#[derive(Debug, Clone)]
pub struct WorldTypes {
    pub person: EntityId,
    pub athlete: EntityId,
    pub basketball_player: EntityId,
    pub cricketer: EntityId,
    pub footballer: EntityId,
    pub tennis_player: EntityId,
    pub musician: EntityId,
    pub singer: EntityId,
    pub composer: EntityId,
    pub guitarist: EntityId,
    pub actor: EntityId,
    pub politician: EntityId,
    pub scientist: EntityId,
    pub writer: EntityId,
    pub film_director: EntityId,
    pub creative_work: EntityId,
    pub film: EntityId,
    pub album: EntityId,
    pub book: EntityId,
    pub tv_series: EntityId,
    pub scholarly_article: EntityId,
    pub organization: EntityId,
    pub sports_team: EntityId,
    pub musical_group: EntityId,
    pub company: EntityId,
    pub university: EntityId,
    pub political_party: EntityId,
    pub place: EntityId,
    pub city: EntityId,
    pub country: EntityId,
    pub mountain: EntityId,
    pub river: EntityId,
    pub stadium: EntityId,
    pub biomolecule: EntityId,
    pub protein: EntityId,
    pub gene: EntityId,
    pub enzyme: EntityId,
    pub sport: EntityId,
    pub position: EntityId,
    pub award: EntityId,
    pub language: EntityId,
    pub genre: EntityId,
}

/// Numeric facts attached to instances. Numbers are not graph entities —
/// they surface only as numeric table cells in the generated datasets.
#[derive(Debug, Clone, Default)]
pub struct NumericFacts {
    pub birth_year: HashMap<EntityId, i64>,
    pub height_cm: HashMap<EntityId, f64>,
    pub rating: HashMap<EntityId, f64>,
    pub population: HashMap<EntityId, i64>,
    pub founded_year: HashMap<EntityId, i64>,
    pub release_year: HashMap<EntityId, i64>,
    pub elevation_m: HashMap<EntityId, f64>,
    pub length_km: HashMap<EntityId, f64>,
    pub molecular_weight: HashMap<EntityId, f64>,
}

/// A generated world: the knowledge graph plus generator-side indices.
#[derive(Debug, Clone)]
pub struct SyntheticWorld {
    pub graph: KnowledgeGraph,
    pub types: WorldTypes,
    pub numeric: NumericFacts,
    /// Instances grouped by their *fine* type entity (includes instances
    /// whose `instance of` edge was dropped by the noise model — the
    /// generator always knows the truth even when the KG does not).
    instances_by_type: HashMap<EntityId, Vec<EntityId>>,
}

impl SyntheticWorld {
    /// Generate a world from a config.
    pub fn generate(config: &WorldConfig) -> Self {
        Generator::new(config).run()
    }

    /// True (generator-side) instances of a fine type, regardless of KG
    /// coverage holes.
    pub fn instances_of(&self, ty: EntityId) -> &[EntityId] {
        self.instances_by_type
            .get(&ty)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All fine types that have at least `min` instances.
    pub fn populated_types(&self, min: usize) -> Vec<EntityId> {
        #[expect(
            clippy::disallowed_methods,
            reason = "order-insensitive: the filter is per-entry and the result is sorted before returning"
        )]
        let mut v: Vec<EntityId> = self
            .instances_by_type
            .iter()
            .filter(|(_, inst)| inst.len() >= min)
            .map(|(&ty, _)| ty)
            .collect();
        v.sort_unstable();
        v
    }
}

struct Generator<'c> {
    cfg: &'c WorldConfig,
    rng: StdRng,
    b: KgBuilder,
    numeric: NumericFacts,
    instances_by_type: HashMap<EntityId, Vec<EntityId>>,
}

impl<'c> Generator<'c> {
    fn new(cfg: &'c WorldConfig) -> Self {
        Generator {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            b: KgBuilder::new(),
            numeric: NumericFacts::default(),
            instances_by_type: HashMap::new(),
        }
    }

    /// Create a person instance. Mirrors WikiData's labeling convention,
    /// which is central to the paper's *type granularity* discussion
    /// (their Figure 5: "in the KG, Peter Steele is labeled as Human, even
    /// though Musician is present as an entity in the one-hop neighbor"):
    /// most people are `instance of` the coarse `Person` type, with the
    /// fine profession attached through an `occupation` edge; only a
    /// minority carry the fine type directly in `instance of`.
    fn person(
        &mut self,
        label: String,
        fine_ty: EntityId,
        person_ty: EntityId,
        occupation: crate::PredicateId,
        desc: String,
    ) -> EntityId {
        let mut e = Entity::new(label, NeSchema::Person).with_description(desc);
        if self.rng.gen_bool(self.cfg.alias_prob) {
            let alias = names::alias_of(&e.label, &mut self.rng);
            if alias != e.label {
                e.aliases.push(alias);
            }
        }
        let id = if self.rng.gen_bool(self.cfg.missing_type_prob) {
            self.b.add_untyped_instance(e)
        } else if self.rng.gen_bool(0.35) {
            self.b.add_instance(e, fine_ty)
        } else {
            let id = self.b.add_instance(e, person_ty);
            self.b.relate(id, occupation, fine_ty);
            id
        };
        // Generator-side truth is always the fine type.
        self.instances_by_type.entry(fine_ty).or_default().push(id);
        id
    }

    /// Create an instance of `ty`, with noise-model alias and coverage hole.
    fn instance(&mut self, label: String, schema: NeSchema, ty: EntityId, desc: String) -> EntityId {
        let mut e = Entity::new(label, schema).with_description(desc);
        if self.rng.gen_bool(self.cfg.alias_prob) {
            let alias = names::alias_of(&e.label, &mut self.rng);
            if alias != e.label {
                e.aliases.push(alias);
            }
        }
        let id = if self.rng.gen_bool(self.cfg.missing_type_prob) {
            self.b.add_untyped_instance(e)
        } else {
            self.b.add_instance(e, ty)
        };
        self.instances_by_type.entry(ty).or_default().push(id);
        id
    }

    #[expect(
        clippy::expect_used,
        reason = "structural: every caller either guards with is_empty() or draws from a pool this builder filled"
    )]
    fn pick(&mut self, pool: &[EntityId]) -> EntityId {
        *pool.choose(&mut self.rng).expect("non-empty pool")
    }

    fn run(mut self) -> SyntheticWorld {
        let types = self.build_type_hierarchy();

        // Predicates.
        let member_of_team = self.b.predicate(P::MEMBER_OF_SPORTS_TEAM);
        let position_played = self.b.predicate(P::POSITION_PLAYED);
        let sport_p = self.b.predicate(P::SPORT);
        let performer = self.b.predicate(P::PERFORMER);
        let composer_p = self.b.predicate(P::COMPOSER);
        let director_p = self.b.predicate(P::DIRECTOR);
        let cast_member = self.b.predicate(P::CAST_MEMBER);
        let country_p = self.b.predicate(P::COUNTRY);
        let capital_p = self.b.predicate(P::CAPITAL);
        let located_in = self.b.predicate(P::LOCATED_IN);
        let encoded_by = self.b.predicate(P::ENCODED_BY);
        let member_of = self.b.predicate(P::MEMBER_OF);
        let genre_p = self.b.predicate(P::GENRE);
        let educated_at = self.b.predicate(P::EDUCATED_AT);
        let employer_p = self.b.predicate(P::EMPLOYER);
        let award_received = self.b.predicate(P::AWARD_RECEIVED);
        let author_p = self.b.predicate(P::AUTHOR);
        let language_of_work = self.b.predicate(P::LANGUAGE_OF_WORK);
        let occupation = self.b.predicate(P::OCCUPATION);

        // ---- Concept instances ----------------------------------------
        let sports: Vec<EntityId> = names::SPORTS
            .iter()
            .map(|s| {
                self.instance(s.to_string(), NeSchema::Concept, types.sport, format!("the sport of {s}"))
            })
            .collect();
        let mut positions_by_sport: Vec<Vec<EntityId>> = Vec::new();
        for (si, plist) in names::POSITIONS.iter().enumerate() {
            let sport_label = names::SPORTS[si];
            let ids = plist
                .iter()
                .map(|&(full, abbr)| {
                    let mut e = Entity::new(full, NeSchema::Concept)
                        .with_description(format!("player position in {sport_label}"));
                    e.aliases.push(abbr.to_string());
                    let id = self.b.add_instance(e, types.position);
                    self.instances_by_type.entry(types.position).or_default().push(id);
                    id
                })
                .collect();
            positions_by_sport.push(ids);
        }
        let genres: Vec<EntityId> = names::GENRES
            .iter()
            .map(|g| self.instance(g.to_string(), NeSchema::Concept, types.genre, format!("{g} genre")))
            .collect();
        let languages: Vec<EntityId> = names::LANGUAGES
            .iter()
            .map(|l| self.instance(format!("{l} language"), NeSchema::Concept, types.language, format!("the {l} language")))
            .collect();
        let awards: Vec<EntityId> = names::AWARDS
            .iter()
            .map(|a| self.instance(a.to_string(), NeSchema::Concept, types.award, "award".into()))
            .collect();

        // ---- Places -----------------------------------------------------
        let n_countries = self.cfg.scaled(18);
        let mut countries = Vec::with_capacity(n_countries);
        for i in 0..n_countries {
            let label = names::country_name(i);
            let id = self.instance(label.clone(), NeSchema::Place, types.country, format!("sovereign state of {label}"));
            self.numeric.population.insert(id, self.rng.gen_range(800_000..90_000_000));
            countries.push(id);
        }
        let n_cities = self.cfg.scaled(70);
        let mut cities = Vec::with_capacity(n_cities);
        for i in 0..n_cities {
            let label = names::city_name(i, &mut self.rng);
            let country = self.pick(&countries);
            let id = self.instance(
                label.clone(),
                NeSchema::Place,
                types.city,
                format!("city in {}", self.b.graph().label(country)),
            );
            self.b.relate(id, country_p, country);
            self.numeric.population.insert(id, self.rng.gen_range(20_000..9_000_000));
            // The first city generated for a country becomes its capital.
            if self.b.graph().outgoing(country).iter().all(|e| e.predicate != capital_p) {
                self.b.relate(country, capital_p, id);
            }
            cities.push(id);
        }
        let n_mountains = self.cfg.scaled(25);
        for i in 0..n_mountains {
            let label = names::mountain_name(i, &mut self.rng);
            let country = self.pick(&countries);
            let id = self.instance(label, NeSchema::Place, types.mountain, "mountain".into());
            self.b.relate(id, country_p, country);
            self.numeric.elevation_m.insert(id, self.rng.gen_range(900.0..8800.0));
        }
        let n_rivers = self.cfg.scaled(20);
        for i in 0..n_rivers {
            let label = names::river_name(i, &mut self.rng);
            let country = self.pick(&countries);
            let id = self.instance(label, NeSchema::Place, types.river, "river".into());
            self.b.relate(id, country_p, country);
            self.numeric.length_km.insert(id, self.rng.gen_range(40.0..6400.0));
        }
        let n_stadiums = self.cfg.scaled(30);
        let mut stadiums = Vec::with_capacity(n_stadiums);
        for i in 0..n_stadiums {
            let city = self.pick(&cities);
            let label = format!("{} {}", names::surname(i * 13 + 5), names::STADIUM_SUFFIXES[i % names::STADIUM_SUFFIXES.len()]);
            let id = self.instance(label, NeSchema::Place, types.stadium, format!("stadium in {}", self.b.graph().label(city)));
            self.b.relate(id, located_in, city);
            stadiums.push(id);
        }

        // ---- Organizations ----------------------------------------------
        let n_unis = self.cfg.scaled(20);
        let mut universities = Vec::with_capacity(n_unis);
        for _ in 0..n_unis {
            let city = self.pick(&cities);
            let city_label = self.b.graph().label(city).to_string();
            let label = format!("University of {city_label}");
            let id = self.instance(label, NeSchema::Organization, types.university, format!("university in {city_label}"));
            self.b.relate(id, located_in, city);
            self.numeric.founded_year.insert(id, self.rng.gen_range(1200..1990));
            universities.push(id);
        }
        let n_companies = self.cfg.scaled(25);
        let mut companies = Vec::with_capacity(n_companies);
        for i in 0..n_companies {
            let label = names::company_name(i, &mut self.rng);
            let country = self.pick(&countries);
            let id = self.instance(label, NeSchema::Organization, types.company, "company".into());
            self.b.relate(id, country_p, country);
            self.numeric.founded_year.insert(id, self.rng.gen_range(1890..2020));
            companies.push(id);
        }
        let n_parties = self.cfg.scaled(12);
        let mut parties = Vec::with_capacity(n_parties);
        for i in 0..n_parties {
            let country = self.pick(&countries);
            let label = format!("{} Party", names::PARTY_ADJECTIVES[i % names::PARTY_ADJECTIVES.len()]);
            let id = self.instance(label, NeSchema::Organization, types.political_party, "political party".into());
            self.b.relate(id, country_p, country);
            parties.push(id);
        }
        let n_teams = self.cfg.scaled(40);
        let mut teams_by_sport: Vec<Vec<EntityId>> = vec![Vec::new(); sports.len()];
        for i in 0..n_teams {
            let si = i % sports.len();
            let city = self.pick(&cities);
            let city_label = self.b.graph().label(city).to_string();
            let label = format!("{city_label} {}", names::TEAM_SUFFIXES[(i / sports.len()) % names::TEAM_SUFFIXES.len()]);
            let id = self.instance(label, NeSchema::Organization, types.sports_team, format!("{} team", names::SPORTS[si]));
            self.b.relate(id, sport_p, sports[si]);
            self.b.relate(id, located_in, city);
            let stadium = self.pick(&stadiums);
            self.b.relate(id, located_in, stadium);
            self.numeric.founded_year.insert(id, self.rng.gen_range(1880..2015));
            teams_by_sport[si].push(id);
        }
        let n_bands = self.cfg.scaled(35);
        let mut bands = Vec::with_capacity(n_bands);
        for i in 0..n_bands {
            let label = names::band_name(i, &mut self.rng);
            let country = self.pick(&countries);
            let genre = self.pick(&genres);
            let id = self.instance(label, NeSchema::Organization, types.musical_group, "musical group".into());
            self.b.relate(id, country_p, country);
            self.b.relate(id, genre_p, genre);
            self.numeric.founded_year.insert(id, self.rng.gen_range(1960..2020));
            bands.push(id);
        }

        // ---- People ------------------------------------------------------
        let athlete_types = [
            (types.basketball_player, 0usize, "basketball player"),
            (types.cricketer, 1, "cricketer"),
            (types.footballer, 2, "footballer"),
            (types.tennis_player, 3, "tennis player"),
        ];
        let per_prof = self.cfg.scaled(55);
        let mut name_counter = 0usize;
        let mut athletes = Vec::new();
        for &(fine_ty, sport_idx, desc) in &athlete_types {
            for _ in 0..per_prof {
                let label = names::person_name(name_counter, &mut self.rng);
                name_counter += 1;
                let country = self.pick(&countries);
                let nat = self.b.graph().label(country).to_string();
                let id = self.person(label, fine_ty, types.person, occupation, format!("{nat} {desc}"));
                self.b.relate(id, country_p, country);
                self.b.relate(id, sport_p, sports[sport_idx]);
                if !teams_by_sport[sport_idx].is_empty() {
                    let team = self.pick(&teams_by_sport[sport_idx]);
                    self.b.relate(id, member_of_team, team);
                }
                if !positions_by_sport[sport_idx].is_empty() {
                    let pos = self.pick(&positions_by_sport[sport_idx]);
                    self.b.relate(id, position_played, pos);
                }
                if self.rng.gen_bool(0.25) {
                    let uni = self.pick(&universities);
                    self.b.relate(id, educated_at, uni);
                }
                if self.rng.gen_bool(0.12) {
                    let aw = self.pick(&awards);
                    self.b.relate(id, award_received, aw);
                }
                self.numeric.birth_year.insert(id, self.rng.gen_range(1955..2005));
                self.numeric.height_cm.insert(id, self.rng.gen_range(158.0..222.0));
                athletes.push(id);
            }
        }
        let musician_types = [
            (types.singer, "singer"),
            (types.composer, "composer"),
            (types.guitarist, "guitarist"),
        ];
        let mut musicians = Vec::new();
        for &(fine_ty, desc) in &musician_types {
            for _ in 0..per_prof {
                let label = names::person_name(name_counter, &mut self.rng);
                name_counter += 1;
                let country = self.pick(&countries);
                let nat = self.b.graph().label(country).to_string();
                let id = self.person(label, fine_ty, types.person, occupation, format!("{nat} {desc}"));
                self.b.relate(id, country_p, country);
                if self.rng.gen_bool(0.7) {
                    let band = self.pick(&bands);
                    self.b.relate(id, member_of, band);
                }
                if self.rng.gen_bool(0.1) {
                    let aw = self.pick(&awards);
                    self.b.relate(id, award_received, aw);
                }
                self.numeric.birth_year.insert(id, self.rng.gen_range(1940..2002));
                musicians.push(id);
            }
        }
        let mut actors = Vec::new();
        let mut directors = Vec::new();
        let mut writers = Vec::new();
        let mut scientists = Vec::new();
        let simple_professions = [
            (types.actor, "actor"),
            (types.film_director, "film director"),
            (types.writer, "writer"),
            (types.scientist, "scientist"),
            (types.politician, "politician"),
        ];
        for &(fine_ty, desc) in &simple_professions {
            for _ in 0..per_prof {
                let label = names::person_name(name_counter, &mut self.rng);
                name_counter += 1;
                let country = self.pick(&countries);
                let nat = self.b.graph().label(country).to_string();
                let id = self.person(label, fine_ty, types.person, occupation, format!("{nat} {desc}"));
                self.b.relate(id, country_p, country);
                self.numeric.birth_year.insert(id, self.rng.gen_range(1930..2000));
                match desc {
                    "actor" => actors.push(id),
                    "film director" => directors.push(id),
                    "writer" => writers.push(id),
                    "scientist" => {
                        let uni = self.pick(&universities);
                        self.b.relate(id, employer_p, uni);
                        if self.rng.gen_bool(0.2) {
                            let aw = self.pick(&awards);
                            self.b.relate(id, award_received, aw);
                        }
                        scientists.push(id);
                    }
                    "politician" => {
                        if !parties.is_empty() {
                            let party = self.pick(&parties);
                            self.b.relate(id, member_of, party);
                        }
                    }
                    #[expect(
                        clippy::unreachable,
                        reason = "the match arms mirror the closed profession list literal a few lines above; a new profession must extend both, and this is the fuse"
                    )]
                    _ => unreachable!(),
                }
            }
        }

        // ---- Creative works ----------------------------------------------
        let n_albums = self.cfg.scaled(60);
        for i in 0..n_albums {
            let label = names::work_name(i, "album", &mut self.rng);
            let id = self.instance(label, NeSchema::Work, types.album, "studio album".into());
            // Performed by a band or a musician; composed by a musician.
            if self.rng.gen_bool(0.5) && !bands.is_empty() {
                let band = self.pick(&bands);
                self.b.relate(id, performer, band);
            } else if !musicians.is_empty() {
                let m = self.pick(&musicians);
                self.b.relate(id, performer, m);
            }
            if !musicians.is_empty() && self.rng.gen_bool(0.6) {
                let c = self.pick(&musicians);
                self.b.relate(id, composer_p, c);
            }
            let g = self.pick(&genres);
            self.b.relate(id, genre_p, g);
            self.numeric.release_year.insert(id, self.rng.gen_range(1965..2024));
            self.numeric.rating.insert(id, self.rng.gen_range(3.0..10.0));
        }
        let n_films = self.cfg.scaled(55);
        for i in 0..n_films {
            let label = names::work_name(i + 1000, "film", &mut self.rng);
            let id = self.instance(label, NeSchema::Work, types.film, "feature film".into());
            if !directors.is_empty() {
                let d = self.pick(&directors);
                self.b.relate(id, director_p, d);
            }
            for _ in 0..self.rng.gen_range(1..4usize) {
                if !actors.is_empty() {
                    let a = self.pick(&actors);
                    self.b.relate(id, cast_member, a);
                }
            }
            let g = self.pick(&genres);
            self.b.relate(id, genre_p, g);
            let c = self.pick(&countries);
            self.b.relate(id, country_p, c);
            self.numeric.release_year.insert(id, self.rng.gen_range(1950..2024));
            self.numeric.rating.insert(id, self.rng.gen_range(2.0..9.5));
        }
        let n_series = self.cfg.scaled(25);
        for i in 0..n_series {
            let label = names::work_name(i + 2000, "series", &mut self.rng);
            let id = self.instance(label, NeSchema::Work, types.tv_series, "television series".into());
            if !directors.is_empty() {
                let d = self.pick(&directors);
                self.b.relate(id, director_p, d);
            }
            if !actors.is_empty() {
                let a = self.pick(&actors);
                self.b.relate(id, cast_member, a);
            }
            self.numeric.release_year.insert(id, self.rng.gen_range(1970..2024));
        }
        let n_books = self.cfg.scaled(35);
        for i in 0..n_books {
            let label = names::work_name(i + 3000, "book", &mut self.rng);
            let id = self.instance(label, NeSchema::Work, types.book, "book".into());
            if !writers.is_empty() {
                let w = self.pick(&writers);
                self.b.relate(id, author_p, w);
            }
            let l = self.pick(&languages);
            self.b.relate(id, language_of_work, l);
            self.numeric.release_year.insert(id, self.rng.gen_range(1850..2024));
        }
        let n_articles = self.cfg.scaled(20);
        for i in 0..n_articles {
            let label = names::article_title(i, &mut self.rng);
            let id = self.instance(label, NeSchema::Work, types.scholarly_article, "scholarly article".into());
            if !scientists.is_empty() {
                let s = self.pick(&scientists);
                self.b.relate(id, author_p, s);
            }
            self.numeric.release_year.insert(id, self.rng.gen_range(1990..2024));
        }

        // ---- Biology -------------------------------------------------------
        let n_genes = self.cfg.scaled(30);
        let mut genes = Vec::with_capacity(n_genes);
        for i in 0..n_genes {
            let label = names::gene_symbol(i);
            let id = self.instance(label.clone(), NeSchema::Biology, types.gene, format!("human gene {label}"));
            genes.push(id);
        }
        let n_proteins = self.cfg.scaled(30);
        for i in 0..n_proteins {
            let fine = if i % 3 == 0 { types.enzyme } else { types.protein };
            let label = names::protein_name(i, &mut self.rng);
            let id = self.instance(label, NeSchema::Biology, fine, "protein".into());
            if !genes.is_empty() {
                let g = genes[i % genes.len()];
                self.b.relate(id, encoded_by, g);
            }
            self.numeric.molecular_weight.insert(id, self.rng.gen_range(8.0..350.0));
        }

        SyntheticWorld {
            graph: self.b.build(),
            types,
            numeric: self.numeric,
            instances_by_type: self.instances_by_type,
        }
    }

    fn build_type_hierarchy(&mut self) -> WorldTypes {
        let b = &mut self.b;
        let person = b.add_type("Person", None);
        let athlete = b.add_type("Athlete", Some(person));
        let basketball_player = b.add_type("Basketball player", Some(athlete));
        let cricketer = b.add_type("Cricketer", Some(athlete));
        let footballer = b.add_type("Footballer", Some(athlete));
        let tennis_player = b.add_type("Tennis player", Some(athlete));
        let musician = b.add_type("Musician", Some(person));
        let singer = b.add_type("Singer", Some(musician));
        let composer = b.add_type("Composer", Some(musician));
        let guitarist = b.add_type("Guitarist", Some(musician));
        let actor = b.add_type("Actor", Some(person));
        let politician = b.add_type("Politician", Some(person));
        let scientist = b.add_type("Scientist", Some(person));
        let writer = b.add_type("Writer", Some(person));
        let film_director = b.add_type("Film director", Some(person));
        let creative_work = b.add_type("Creative work", None);
        let film = b.add_type("Film", Some(creative_work));
        let album = b.add_type("Album", Some(creative_work));
        let book = b.add_type("Book", Some(creative_work));
        let tv_series = b.add_type("Television series", Some(creative_work));
        let scholarly_article = b.add_type("Scholarly article", Some(creative_work));
        let organization = b.add_type("Organization", None);
        let sports_team = b.add_type("Sports team", Some(organization));
        let musical_group = b.add_type("Musical group", Some(organization));
        let company = b.add_type("Company", Some(organization));
        let university = b.add_type("University", Some(organization));
        let political_party = b.add_type("Political party", Some(organization));
        let place = b.add_type("Place", None);
        let city = b.add_type("City", Some(place));
        let country = b.add_type("Country", Some(place));
        let mountain = b.add_type("Mountain", Some(place));
        let river = b.add_type("River", Some(place));
        let stadium = b.add_type("Stadium", Some(place));
        let biomolecule = b.add_type("Biomolecule", None);
        let protein = b.add_type("Protein", Some(biomolecule));
        let gene = b.add_type("Gene", Some(biomolecule));
        let enzyme = b.add_type("Enzyme", Some(protein));
        let sport = b.add_type("Sport", None);
        let position = b.add_type("Position", None);
        let award = b.add_type("Award", None);
        let language = b.add_type("Language", None);
        let genre = b.add_type("Genre", None);
        WorldTypes {
            person,
            athlete,
            basketball_player,
            cricketer,
            footballer,
            tennis_player,
            musician,
            singer,
            composer,
            guitarist,
            actor,
            politician,
            scientist,
            writer,
            film_director,
            creative_work,
            film,
            album,
            book,
            tv_series,
            scholarly_article,
            organization,
            sports_team,
            musical_group,
            company,
            university,
            political_party,
            place,
            city,
            country,
            mountain,
            river,
            stadium,
            biomolecule,
            protein,
            gene,
            enzyme,
            sport,
            position,
            award,
            language,
            genre,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ontology::TypeHierarchy;
    use crate::stats::KgStats;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorldConfig::tiny(11);
        let w1 = SyntheticWorld::generate(&cfg);
        let w2 = SyntheticWorld::generate(&cfg);
        assert_eq!(w1.graph.len(), w2.graph.len());
        assert_eq!(w1.graph.edge_count(), w2.graph.edge_count());
        for (id, e) in w1.graph.entities() {
            assert_eq!(e.label, w2.graph.entity(id).label);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let w1 = SyntheticWorld::generate(&WorldConfig::tiny(1));
        let w2 = SyntheticWorld::generate(&WorldConfig::tiny(2));
        let labels1: Vec<_> = w1.graph.entities().map(|(_, e)| e.label.clone()).collect();
        let labels2: Vec<_> = w2.graph.entities().map(|(_, e)| e.label.clone()).collect();
        assert_ne!(labels1, labels2);
    }

    #[test]
    fn world_has_expected_structure() {
        let w = SyntheticWorld::generate(&WorldConfig::tiny(3));
        let h = TypeHierarchy::new(&w.graph);
        // Three-level hierarchy: Basketball player < Athlete < Person.
        assert!(h.is_subtype_of(w.types.basketball_player, w.types.person));
        assert_eq!(h.depth(w.types.basketball_player), 2);
        // Every populated fine type has instances.
        assert!(!w.instances_of(w.types.basketball_player).is_empty());
        assert!(!w.instances_of(w.types.city).is_empty());
        assert!(!w.instances_of(w.types.album).is_empty());
    }

    #[test]
    fn athletes_link_to_teams_like_figure_5() {
        let w = SyntheticWorld::generate(&WorldConfig::tiny(5));
        // At least one athlete has a sports-team one-hop neighbor.
        let team_pred = w.graph.predicate_id(crate::predicates::MEMBER_OF_SPORTS_TEAM).unwrap();
        let linked = w
            .instances_of(w.types.basketball_player)
            .iter()
            .any(|&a| w.graph.outgoing(a).iter().any(|e| e.predicate == team_pred));
        assert!(linked, "expected athletes wired to teams");
    }

    #[test]
    fn coverage_holes_exist_at_default_noise() {
        let cfg = WorldConfig {
            seed: 9,
            scale: 0.3,
            missing_type_prob: 0.2,
            ..WorldConfig::default()
        };
        let w = SyntheticWorld::generate(&cfg);
        let stats = KgStats::compute(&w.graph);
        assert!(stats.untyped_instances > 0, "noise model should drop some instance-of edges");
    }

    #[test]
    fn numeric_facts_are_populated() {
        let w = SyntheticWorld::generate(&WorldConfig::tiny(4));
        assert!(!w.numeric.birth_year.is_empty());
        assert!(!w.numeric.population.is_empty());
        assert!(!w.numeric.release_year.is_empty());
        for (_, &y) in w.numeric.birth_year.iter() {
            assert!((1900..2010).contains(&y));
        }
    }

    #[test]
    fn populated_types_respects_threshold() {
        let w = SyntheticWorld::generate(&WorldConfig::tiny(6));
        let all = w.populated_types(1);
        let big = w.populated_types(10);
        assert!(big.len() <= all.len());
        for ty in &big {
            assert!(w.instances_of(*ty).len() >= 10);
        }
    }
}
