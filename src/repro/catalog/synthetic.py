"""Seeded synthetic YAGO-substitute catalog generator.

The YAGO 2008-w40-2 dump used in the paper is not available offline, so we
generate a catalog with the same *structural* properties the paper's
algorithms exploit:

* a WordNet-like spine of coarse types (person, work, place, ...) with
  Wikipedia-category-like fine types underneath ("Veridian actors",
  "1990s films", "cities in Tavria"),
* entities attached (``∈``) to the *fine* categories only, so coarse types are
  reachable transitively — exactly the structure that makes missing links
  hurt,
* lemma ambiguity: shared surnames, initials and surname-only mentions for
  persons, novel/film adaptation title collisions for works,
* binary relations matching the paper's search experiments (Appendix G):
  ``acted_in``, ``directed``, ``wrote``, ``official_language``, ``produced``,
  plus extra substrate relations (``born_in``, ``located_in``, ``plays_for``,
  ``album_by``) with realistic cardinalities,
* a *corrupted annotator view* of the catalog with a fraction of ``∈`` links,
  ``⊆`` links and relation tuples removed — the incompleteness that the
  paper's missing-link repair feature (Section 4.2.3) and Appendix F anecdote
  are about.

Everything is driven by one ``random.Random(seed)`` stream, so a config is a
complete, reproducible description of a world.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.catalog import names
from repro.catalog.catalog import Catalog
from repro.catalog.io import catalog_from_dict, catalog_to_dict
from repro.catalog.relations import Cardinality
from repro.catalog.types import ROOT_TYPE_ID

#: Person roles with sampling weight and header-friendly lemmas.
PERSON_ROLES: tuple[tuple[str, float, tuple[str, ...]], ...] = (
    ("actor", 0.26, ("actor", "actors", "film actor", "cast member")),
    ("director", 0.14, ("director", "film director", "directed by")),
    ("producer", 0.10, ("producer", "film producer", "produced by")),
    ("novelist", 0.16, ("novelist", "author", "writer", "written by")),
    ("musician", 0.10, ("musician", "recording artist", "performer")),
    ("footballer", 0.14, ("footballer", "soccer player", "player")),
    ("scientist", 0.10, ("scientist", "physicist", "researcher")),
)

#: Second roles compatible with a first role (multi-type entities).
COMPATIBLE_SECOND_ROLES: dict[str, tuple[str, ...]] = {
    "actor": ("director", "producer"),
    "director": ("producer", "actor"),
    "producer": ("director",),
    "novelist": ("scientist",),
    "musician": ("actor",),
    "footballer": (),
    "scientist": ("novelist",),
}


@dataclass
class SyntheticCatalogConfig:
    """Knobs for the generated world.  Defaults are test-scale (fast)."""

    seed: int = 7
    n_persons: int = 160
    n_movies: int = 80
    n_novels: int = 60
    n_albums: int = 40
    n_countries: int = 20
    cities_per_country: int = 2
    n_clubs: int = 16
    multi_role_prob: float = 0.18
    #: probability a person's lemma set includes "F. Surname"
    initial_lemma_prob: float = 0.6
    #: probability a person's lemma set includes bare "Surname"
    surname_lemma_prob: float = 0.5
    #: fraction of movies that share the exact title of a novel (adaptations)
    adaptation_fraction: float = 0.3
    actors_per_movie: tuple[int, int] = (2, 4)
    producers_per_movie: tuple[int, int] = (1, 2)
    languages_per_country: tuple[int, int] = (1, 2)
    born_in_prob: float = 0.8
    #: fraction of fine categories that get a *redundant alias* category with
    #: a nearly identical extension — socially-maintained catalogs are full
    #: of these ("American film actors" vs "Male actors from the United
    #: States"), and they are what makes over-specific type scoring (IDF
    #: alone, paper Figure 8) misfire
    alias_category_fraction: float = 0.0
    #: probability each member of an aliased category joins the alias too
    alias_member_prob: float = 0.85
    # --- annotator-view corruption (missing links) ---
    # Calibrated so the annotator's view is as incomplete as the paper's
    # YAGO snapshot behaves: LCA over-generalises on most columns while the
    # collective model's repair feature keeps specific types viable.
    drop_instance_link_prob: float = 0.15
    drop_subtype_link_prob: float = 0.08
    drop_tuple_prob: float = 0.15

    def validate(self) -> None:
        if self.n_countries > len(names.COUNTRIES):
            raise ValueError(
                f"n_countries={self.n_countries} exceeds the name pool "
                f"({len(names.COUNTRIES)})"
            )
        for probability in (
            self.multi_role_prob,
            self.initial_lemma_prob,
            self.surname_lemma_prob,
            self.adaptation_fraction,
            self.born_in_prob,
            self.alias_category_fraction,
            self.alias_member_prob,
            self.drop_instance_link_prob,
            self.drop_subtype_link_prob,
            self.drop_tuple_prob,
        ):
            if not 0.0 <= probability <= 1.0:
                raise ValueError(f"probability out of range: {probability}")


@dataclass
class SyntheticWorld:
    """Output of the generator.

    Attributes:
        full: The ground-truth catalog (complete links and tuples) — plays the
            role of "Wikipedia + DBPedia" truth in the paper's evaluation.
        annotator_view: The corrupted catalog the annotator works against —
            plays the role of the (incomplete) YAGO snapshot.
        config: The generating configuration.
        query_relations: The five Appendix-G relations present in the world.
    """

    full: Catalog
    annotator_view: Catalog
    config: SyntheticCatalogConfig
    query_relations: tuple[str, ...] = (
        "rel:acted_in",
        "rel:directed",
        "rel:official_language",
        "rel:produced",
        "rel:wrote",
    )


class SyntheticCatalogGenerator:
    """Builds a :class:`SyntheticWorld` from a :class:`SyntheticCatalogConfig`."""

    def __init__(self, config: SyntheticCatalogConfig | None = None) -> None:
        self.config = config if config is not None else SyntheticCatalogConfig()
        self.config.validate()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self) -> SyntheticWorld:
        rng = random.Random(self.config.seed)
        catalog = Catalog(name=f"synthetic-{self.config.seed}")
        self._build_type_spine(catalog)
        persons_by_role = self._build_persons(catalog, rng)
        movies, novels, albums = self._build_works(catalog, rng)
        countries, cities, languages = self._build_places(catalog, rng)
        clubs = self._build_clubs(catalog, rng)
        self._build_relations(
            catalog,
            rng,
            persons_by_role=persons_by_role,
            movies=movies,
            novels=novels,
            albums=albums,
            countries=countries,
            cities=cities,
            languages=languages,
            clubs=clubs,
        )
        self._add_alias_categories(catalog, rng)
        annotator_view = self._corrupt(catalog, rng)
        return SyntheticWorld(
            full=catalog,
            annotator_view=annotator_view,
            config=self.config,
        )

    # ------------------------------------------------------------------
    # type spine
    # ------------------------------------------------------------------
    def _build_type_spine(self, catalog: Catalog) -> None:
        types = catalog.types
        # A WordNet-like intermediate layer deepens the DAG so that the
        # distance features meaningfully separate specific types from the
        # root (YAGO's spine is many levels deep).
        types.add_type("type:causal_agent", ("causal agent", "agent"))
        types.add_type("type:creation", ("creation", "artifact"))
        types.add_type("type:region", ("region", "geographical area"))
        types.add_type("type:social_group", ("social group",))
        types.add_type("type:abstraction", ("abstraction",))

        types.add_type("type:person", ("person", "people", "name"))
        types.add_subtype("type:person", "type:causal_agent")
        types.add_type("type:work", ("work", "creative work"))
        types.add_subtype("type:work", "type:creation")
        types.add_type("type:place", ("place", "location"))
        types.add_subtype("type:place", "type:region")
        types.add_type("type:organization", ("organization", "organisation"))
        types.add_subtype("type:organization", "type:social_group")
        types.add_type("type:language", ("language", "tongue", "official language"))
        types.add_subtype("type:language", "type:abstraction")

        for nationality in names.NATIONALITIES:
            # An orthogonal per-nationality people category gives every
            # person a second direct parent, which is what lets the
            # missing-link relatedness repair (paper Section 4.2.3) fire when
            # a role link is dropped from the annotator view.
            category = f"type:cat:{nationality.lower()}_people"
            types.add_type(category, (f"{nationality} people",))
            types.add_subtype(category, "type:person")
        for role, _weight, lemmas in PERSON_ROLES:
            types.add_type(f"type:{role}", lemmas)
            types.add_subtype(f"type:{role}", "type:person")
            for nationality in names.NATIONALITIES:
                category = f"type:cat:{nationality.lower()}_{role}s"
                types.add_type(category, (f"{nationality} {role}s",))
                types.add_subtype(category, f"type:{role}")

        types.add_type("type:movie", ("movie", "film", "motion picture", "title"))
        types.add_subtype("type:movie", "type:work")
        types.add_type("type:novel", ("novel", "book", "title"))
        types.add_subtype("type:novel", "type:work")
        types.add_type("type:album", ("album", "record", "LP"))
        types.add_subtype("type:album", "type:work")
        for decade in names.DECADES:
            for kind in ("film", "novel", "album"):
                category = f"type:cat:{decade}_{kind}s"
                types.add_type(category, (f"{decade} {kind}s",))
                types.add_subtype(category, f"type:{'movie' if kind == 'film' else kind}")
        for genre in names.GENRES:
            for kind in ("film", "novel"):
                category = f"type:cat:{genre}_{kind}s"
                types.add_type(category, (f"{genre} {kind}s",))
                types.add_subtype(category, f"type:{'movie' if kind == 'film' else kind}")

        types.add_type("type:country", ("country", "nation", "state"))
        types.add_subtype("type:country", "type:place")
        types.add_type("type:city", ("city", "town", "birthplace"))
        types.add_subtype("type:city", "type:place")

        types.add_type("type:club", ("football club", "club", "team"))
        types.add_subtype("type:club", "type:organization")

        types.ensure_root(ROOT_TYPE_ID)

    # ------------------------------------------------------------------
    # entities
    # ------------------------------------------------------------------
    def _sample_roles(self, rng: random.Random) -> list[str]:
        roles = [role for role, _w, _l in PERSON_ROLES]
        weights = [w for _r, w, _l in PERSON_ROLES]
        first = rng.choices(roles, weights=weights, k=1)[0]
        chosen = [first]
        if rng.random() < self.config.multi_role_prob:
            extras = COMPATIBLE_SECOND_ROLES.get(first, ())
            if extras:
                chosen.append(rng.choice(extras))
        return chosen

    def _person_lemmas(
        self, rng: random.Random, first: str, surname: str
    ) -> list[str]:
        lemmas = [f"{first} {surname}"]
        if rng.random() < self.config.initial_lemma_prob:
            lemmas.append(f"{first[0]}. {surname}")
        if rng.random() < self.config.surname_lemma_prob:
            lemmas.append(surname)
        return lemmas

    def _build_persons(
        self, catalog: Catalog, rng: random.Random
    ) -> dict[str, list[str]]:
        persons_by_role: dict[str, list[str]] = {
            role: [] for role, _w, _l in PERSON_ROLES
        }
        used_names: set[tuple[str, str]] = set()
        for index in range(self.config.n_persons):
            first = rng.choice(names.FIRST_NAMES)
            surname = rng.choice(names.SURNAMES)
            # Allow genuine full-name collisions occasionally but keep ids unique.
            if (first, surname) in used_names and rng.random() < 0.7:
                first = rng.choice(names.FIRST_NAMES)
            used_names.add((first, surname))
            entity_id = f"ent:person:{index:04d}"
            roles = self._sample_roles(rng)
            nationality = rng.choice(names.NATIONALITIES)
            direct_types = [
                f"type:cat:{nationality.lower()}_{role}s" for role in roles
            ]
            direct_types.append(f"type:cat:{nationality.lower()}_people")
            catalog.add_entity(
                entity_id,
                lemmas=self._person_lemmas(rng, first, surname),
                direct_types=direct_types,
            )
            for role in roles:
                persons_by_role[role].append(entity_id)
        return persons_by_role

    def _work_title(self, rng: random.Random) -> str:
        pattern = rng.randrange(3)
        adjective = rng.choice(names.TITLE_ADJECTIVES)
        noun = rng.choice(names.TITLE_NOUNS)
        if pattern == 0:
            return f"The {adjective} {noun}"
        if pattern == 1:
            second = rng.choice(names.TITLE_NOUNS)
            return f"{noun} of the {second}"
        return f"A {adjective} {noun}"

    def _build_works(
        self, catalog: Catalog, rng: random.Random
    ) -> tuple[list[str], list[str], list[str]]:
        novels: list[str] = []
        novel_titles: list[str] = []
        for index in range(self.config.n_novels):
            title = self._work_title(rng)
            entity_id = f"ent:novel:{index:04d}"
            decade = rng.choice(names.DECADES)
            genre = rng.choice(names.GENRES)
            catalog.add_entity(
                entity_id,
                lemmas=[title],
                direct_types=[
                    f"type:cat:{decade}_novels",
                    f"type:cat:{genre}_novels",
                ],
            )
            novels.append(entity_id)
            novel_titles.append(title)

        movies: list[str] = []
        n_adaptations = int(self.config.adaptation_fraction * self.config.n_movies)
        for index in range(self.config.n_movies):
            if index < n_adaptations and novel_titles:
                title = rng.choice(novel_titles)
            else:
                title = self._work_title(rng)
            entity_id = f"ent:movie:{index:04d}"
            decade = rng.choice(names.DECADES)
            genre = rng.choice(names.GENRES)
            catalog.add_entity(
                entity_id,
                lemmas=[title],
                direct_types=[
                    f"type:cat:{decade}_films",
                    f"type:cat:{genre}_films",
                ],
            )
            movies.append(entity_id)

        albums: list[str] = []
        for index in range(self.config.n_albums):
            word = rng.choice(names.ALBUM_WORDS)
            second = rng.choice(names.TITLE_NOUNS)
            title = f"{word} {second}" if rng.random() < 0.5 else word
            entity_id = f"ent:album:{index:04d}"
            decade = rng.choice(names.DECADES)
            catalog.add_entity(
                entity_id,
                lemmas=[title],
                direct_types=[f"type:cat:{decade}_albums"],
            )
            albums.append(entity_id)
        return movies, novels, albums

    def _build_places(
        self, catalog: Catalog, rng: random.Random
    ) -> tuple[list[str], list[str], list[str]]:
        countries: list[str] = []
        for index in range(self.config.n_countries):
            country_name, lemmas = names.COUNTRIES[index]
            entity_id = f"ent:country:{index:04d}"
            catalog.add_entity(entity_id, lemmas=lemmas, direct_types=["type:country"])
            # A per-country city category mirrors "Universities in Toronto".
            category = f"type:cat:cities_in_{country_name.lower()}"
            catalog.types.add_type(category, (f"cities in {country_name}",))
            catalog.types.add_subtype(category, "type:city")
            countries.append(entity_id)

        cities: list[str] = []
        stems = list(names.CITY_STEMS)
        rng.shuffle(stems)
        city_index = 0
        for country_index, _country_id in enumerate(countries):
            country_name = names.COUNTRIES[country_index][0]
            for _ in range(self.config.cities_per_country):
                stem = stems[city_index % len(stems)]
                suffix = "" if city_index < len(stems) else f" {city_index // len(stems) + 1}"
                entity_id = f"ent:city:{city_index:04d}"
                catalog.add_entity(
                    entity_id,
                    lemmas=[f"{stem}{suffix}"],
                    direct_types=[f"type:cat:cities_in_{country_name.lower()}"],
                )
                cities.append(entity_id)
                city_index += 1

        languages: list[str] = []
        for index in range(min(self.config.n_countries, len(names.LANGUAGES))):
            language = names.LANGUAGES[index]
            entity_id = f"ent:language:{index:04d}"
            catalog.add_entity(
                entity_id,
                lemmas=[language, f"{language} language"],
                direct_types=["type:language"],
            )
            languages.append(entity_id)
        return countries, cities, languages

    def _build_clubs(self, catalog: Catalog, rng: random.Random) -> list[str]:
        clubs: list[str] = []
        for index in range(self.config.n_clubs):
            stem = rng.choice(names.CITY_STEMS)
            word = rng.choice(names.CLUB_WORDS)
            entity_id = f"ent:club:{index:04d}"
            catalog.add_entity(
                entity_id,
                lemmas=[f"{stem} {word}", stem],
                direct_types=["type:club"],
            )
            clubs.append(entity_id)
        return clubs

    # ------------------------------------------------------------------
    # relations
    # ------------------------------------------------------------------
    def _build_relations(
        self,
        catalog: Catalog,
        rng: random.Random,
        persons_by_role: dict[str, list[str]],
        movies: list[str],
        novels: list[str],
        albums: list[str],
        countries: list[str],
        cities: list[str],
        languages: list[str],
        clubs: list[str],
    ) -> None:
        catalog.add_relation(
            "rel:acted_in",
            "type:movie",
            "type:actor",
            lemmas=("acted in", "cast", "starring"),
        )
        catalog.add_relation(
            "rel:directed",
            "type:movie",
            "type:director",
            lemmas=("directed", "directed by", "director of"),
            cardinality=Cardinality.MANY_TO_ONE,
        )
        catalog.add_relation(
            "rel:produced",
            "type:movie",
            "type:producer",
            lemmas=("produced", "produced by"),
        )
        catalog.add_relation(
            "rel:wrote",
            "type:novel",
            "type:novelist",
            lemmas=("wrote", "written by", "author of"),
            cardinality=Cardinality.MANY_TO_ONE,
        )
        catalog.add_relation(
            "rel:official_language",
            "type:country",
            "type:language",
            lemmas=("official language", "language spoken"),
        )
        catalog.add_relation(
            "rel:born_in",
            "type:person",
            "type:city",
            lemmas=("born in", "birthplace"),
            cardinality=Cardinality.MANY_TO_ONE,
        )
        catalog.add_relation(
            "rel:located_in",
            "type:city",
            "type:country",
            lemmas=("located in", "country"),
            cardinality=Cardinality.MANY_TO_ONE,
        )
        catalog.add_relation(
            "rel:plays_for",
            "type:footballer",
            "type:club",
            lemmas=("plays for", "club", "team"),
        )
        catalog.add_relation(
            "rel:album_by",
            "type:album",
            "type:musician",
            lemmas=("album by", "recorded by", "artist"),
            cardinality=Cardinality.MANY_TO_ONE,
        )

        actors = persons_by_role["actor"]
        directors = persons_by_role["director"]
        producers = persons_by_role["producer"]
        novelists = persons_by_role["novelist"]
        musicians = persons_by_role["musician"]
        footballers = persons_by_role["footballer"]

        for movie in movies:
            if directors:
                catalog.add_tuple("rel:directed", movie, rng.choice(directors))
            if actors:
                count = rng.randint(*self.config.actors_per_movie)
                for actor in rng.sample(actors, min(count, len(actors))):
                    catalog.add_tuple("rel:acted_in", movie, actor)
            if producers:
                count = rng.randint(*self.config.producers_per_movie)
                for producer in rng.sample(producers, min(count, len(producers))):
                    catalog.add_tuple("rel:produced", movie, producer)
        for novel in novels:
            if novelists:
                catalog.add_tuple("rel:wrote", novel, rng.choice(novelists))
        for index, country in enumerate(countries):
            count = rng.randint(*self.config.languages_per_country)
            pool = [languages[index % len(languages)]]
            while len(pool) < count:
                extra = rng.choice(languages)
                if extra not in pool:
                    pool.append(extra)
            for language in pool:
                catalog.add_tuple("rel:official_language", country, language)
        city_country: dict[str, str] = {}
        per_country = self.config.cities_per_country
        for index, city in enumerate(cities):
            country = countries[index // per_country]
            catalog.add_tuple("rel:located_in", city, country)
            city_country[city] = country
        for entity in catalog.entities.all_entities():
            if not entity.entity_id.startswith("ent:person:"):
                continue
            if cities and rng.random() < self.config.born_in_prob:
                catalog.add_tuple("rel:born_in", entity.entity_id, rng.choice(cities))
        for footballer in footballers:
            if clubs:
                catalog.add_tuple("rel:plays_for", footballer, rng.choice(clubs))
        for album in albums:
            if musicians:
                catalog.add_tuple("rel:album_by", album, rng.choice(musicians))

    # ------------------------------------------------------------------
    # redundant alias categories
    # ------------------------------------------------------------------
    def _add_alias_categories(self, catalog: Catalog, rng: random.Random) -> None:
        """Create near-duplicate sibling categories for a fraction of cats.

        The alias shares the original's parents and ~``alias_member_prob`` of
        its members, with a paraphrased lemma ("1990s films" → "films of the
        1990s").  Nothing is generated when ``alias_category_fraction`` is 0.
        """
        if self.config.alias_category_fraction <= 0.0:
            return
        categories = [
            type_id
            for type_id in sorted(catalog.types.topological_order())
            if type_id.startswith("type:cat:")
        ]
        for category in categories:
            members = catalog.entities_of_type(category)
            if len(members) < 4:
                continue
            if rng.random() >= self.config.alias_category_fraction:
                continue
            alias = f"{category}_alias"
            lemmas = catalog.types.lemmas(category)
            alias_lemmas = tuple(_paraphrase_lemma(lemma) for lemma in lemmas)
            catalog.types.add_type(alias, alias_lemmas)
            for parent in catalog.types.parents(category):
                catalog.types.add_subtype(alias, parent)
            for entity_id in sorted(members):
                if rng.random() < self.config.alias_member_prob:
                    catalog.entities.add_direct_type(entity_id, alias)
            catalog.invalidate_caches()

    # ------------------------------------------------------------------
    # corruption (the annotator's incomplete view)
    # ------------------------------------------------------------------
    def _corrupt(self, catalog: Catalog, rng: random.Random) -> Catalog:
        payload = catalog_to_dict(catalog)
        payload["name"] = f"{catalog.name}-annotator-view"
        for entity_entry in payload["entities"]:
            kept = []
            for type_id in entity_entry["types"]:
                if (
                    len(entity_entry["types"]) > 1
                    and rng.random() < self.config.drop_instance_link_prob
                ):
                    continue
                kept.append(type_id)
            if not kept and entity_entry["types"]:
                kept = [entity_entry["types"][0]]
            entity_entry["types"] = kept
        for type_entry in payload["types"]:
            if type_entry["id"] == ROOT_TYPE_ID:
                continue
            if not type_entry["id"].startswith("type:cat:"):
                continue
            kept_parents = [
                parent
                for parent in type_entry["parents"]
                if rng.random() >= self.config.drop_subtype_link_prob
            ]
            type_entry["parents"] = kept_parents
        payload["facts"] = [
            fact
            for fact in payload["facts"]
            if rng.random() >= self.config.drop_tuple_prob
        ]
        view = catalog_from_dict(payload)
        # Categories that lost every parent re-attach to the root, which is
        # exactly how Appendix F's over-generalisation arises for LCA.
        view.types.ensure_root(ROOT_TYPE_ID)
        view.invalidate_caches()
        return view


def _paraphrase_lemma(lemma: str) -> str:
    """Paraphrase a category lemma for its redundant alias.

    ``"1990s films" -> "films of the 1990s"``; single-token lemmas get a
    "notable" prefix.
    """
    tokens = lemma.split()
    if len(tokens) < 2:
        return f"notable {lemma}"
    return f"{' '.join(tokens[1:])} of the {tokens[0]}"


def generate_world(
    config: SyntheticCatalogConfig | None = None,
) -> SyntheticWorld:
    """Convenience wrapper: ``SyntheticCatalogGenerator(config).generate()``."""
    return SyntheticCatalogGenerator(config).generate()
