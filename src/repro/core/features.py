"""The five feature families of the paper (Section 4.2).

Every family returns a fixed-length :mod:`numpy` vector; the corresponding
potential is the dot product with a trained weight vector (log-linear model).
The paper's convention "no feature is fired if label na is involved" is
honoured by the callers: na rows/columns of potential tables are identically
zero, so each feature family here is only evaluated for concrete labels.

Each non-unary-signal family also carries a trailing **bias** feature that is
1.0 for every concrete label.  With a (learned) negative weight this is what
lets ``na`` — whose score is pinned at 0 — win over weak positive evidence.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from repro.catalog.catalog import Catalog
from repro.tables.generator import base_relation

#: Feature names, index-aligned with the vectors produced below.
F1_FEATURE_NAMES = ("cosine", "soft_tfidf", "jaccard", "dice", "exact", "bias")
F2_FEATURE_NAMES = ("cosine", "soft_tfidf", "jaccard", "dice", "exact", "bias")
F3_FEATURE_NAMES = ("distance_compatibility", "idf_specificity", "contained")
F4_FEATURE_NAMES = ("schema_match", "subject_participation", "object_participation", "bias")
F5_FEATURE_NAMES = ("tuple_exists", "functional_violation")


class TypeEntityFeatureMode(enum.Enum):
    """The three type-entity compatibility settings of the paper's Figure 8."""

    INV_SQRT_DIST = "inv_sqrt_dist"
    INV_DIST = "inv_dist"
    IDF = "idf"


# ----------------------------------------------------------------------
# f1 / f2: text-vs-lemma similarity batteries (see repro.core.battery)
# ----------------------------------------------------------------------
def header_absent_features() -> np.ndarray:
    """f2 when the column has no header: all-zero (the signal is silent).

    Note the bias is also zero — a missing header should neither favour nor
    penalise concrete types; φ3 carries the column-type decision alone.
    """
    return np.zeros(len(F2_FEATURE_NAMES))


# ----------------------------------------------------------------------
# f3: column type vs cell entity (Section 4.2.3)
# ----------------------------------------------------------------------
def type_entity_features(
    catalog: Catalog,
    type_id: str,
    entity_id: str,
    mode: TypeEntityFeatureMode,
) -> np.ndarray:
    """Compatibility of labelling a column ``type_id`` and a cell ``entity_id``.

    Section 4.2.3 describes two specificity signals — the IDF-style
    ``|E| / |E(T)|`` (type-level) and the reciprocal distance between entity
    and type — plus a damped ``1/sqrt(dist)`` variant.  The three Figure-8
    settings select the distance form:

    * ``INV_DIST`` — distance feature is ``1 / dist(E, T)``,
    * ``INV_SQRT_DIST`` — distance feature is ``1 / sqrt(dist(E, T))``,
    * ``IDF`` — no distance feature at all (specificity carries everything),

    and the (normalised log) IDF specificity feature is always present.  When
    ``E ∉+ T`` the *missing-link repair* applies to both: the distance is
    rebuilt from ``min_{E' ∈ E(T)} dist(E', T)`` and every signal is scaled
    by the relatedness ``min_{T' ∋ E} |E(T') ∩ E(T)| / |E(T')|`` — a hint
    that the catalog link was probably missed, not proof (paper
    Section 4.2.3, "Missing links").
    """
    distance = catalog.distance(entity_id, type_id)
    contained = math.isfinite(distance)
    if contained:
        scale = 1.0
        effective_distance = distance
    else:
        scale = catalog.relatedness(entity_id, type_id)
        effective_distance = catalog.min_instance_distance(type_id)
        if not math.isfinite(effective_distance):
            scale = 0.0
            effective_distance = 1.0
    if mode is TypeEntityFeatureMode.INV_DIST:
        distance_compat = scale / max(effective_distance, 1.0)
    elif mode is TypeEntityFeatureMode.INV_SQRT_DIST:
        distance_compat = scale / math.sqrt(max(effective_distance, 1.0))
    else:  # IDF: specificity alone
        distance_compat = 0.0
    idf_specificity = scale * _normalised_idf(catalog, type_id)
    return np.array([distance_compat, idf_specificity, 1.0 if contained else 0.0])


def _normalised_idf(catalog: Catalog, type_id: str) -> float:
    """Type IDF specificity squashed into [0, 1]."""
    maximum = math.log(max(len(catalog.entities), 2))
    return catalog.type_idf_specificity(type_id) / maximum


def type_entity_feature_grid(
    catalog: Catalog,
    type_ids: tuple[str, ...],
    entity_ids: tuple[str, ...],
) -> np.ndarray:
    """:func:`type_entity_features` of every (type, entity) pair in every mode.

    Returns shape ``(modes, types, entities, |f3|)``, modes in
    :class:`TypeEntityFeatureMode` order; every element is byte-identical
    to the scalar function.  One pass over the catalog:

    * upward ``⊆`` hops between every pair of types, filled parents first
      along :meth:`~repro.catalog.types.TypeHierarchy.topological_order`;
    * ``dist(E, T)`` as ``1 + min`` of those hops over E's direct types
      (``inf`` when ``E ∉+ T``, and for an entity with no direct type);
    * relatedness from ``|E(T') ∩ E(T)|``, one matmul over the membership
      matrix (``E ∈+ T`` exactly when the distance is finite);
    * ``min_instance_distance`` as a row min of the distances, which are
      ``inf`` off ``E(T)``.
    """
    n_types, n_entities = len(type_ids), len(entity_ids)
    type_index = {type_id: i for i, type_id in enumerate(type_ids)}
    hierarchy = catalog.types
    hops = np.full((n_types, n_types), np.inf)
    for type_id in hierarchy.topological_order():
        child = type_index[type_id]
        parents = [type_index[parent] for parent in hierarchy.parents(type_id)]
        if parents:
            hops[child] = hops[parents].min(axis=0) + 1.0
        hops[child, child] = 0.0

    direct = [
        [type_index[t] for t in catalog.entities.get(entity_id).direct_types]
        for entity_id in entity_ids
    ]
    counts = np.array([len(types) for types in direct], dtype=np.int64)
    flat = np.array([t for types in direct for t in types], dtype=np.int64)
    # reduceat cannot take an empty segment: entities with no direct type
    # keep the defaults (no distance, no relatedness)
    typed = np.flatnonzero(counts)
    starts = (np.cumsum(counts) - counts)[typed]

    def min_over_direct(per_type: np.ndarray, default: float) -> np.ndarray:
        """``out[T, E] = min over E's direct types T' of per_type[T', T]``."""
        out = np.full((n_types, n_entities), default)
        if len(typed):
            out[:, typed] = np.minimum.reduceat(per_type[flat], starts, axis=0).T
        return out

    distance = 1.0 + min_over_direct(hops, np.inf)
    contained = np.isfinite(distance)
    membership = contained.astype(np.float64)
    # integer counts, exact in float64
    overlap = membership @ membership.T
    members = np.diagonal(overlap)[:, None]
    ratio = np.divide(
        overlap, members, out=np.zeros_like(overlap), where=members > 0
    )
    related = min_over_direct(ratio, 0.0)
    min_instance = distance.min(axis=1, initial=np.inf)[:, None]

    scale = np.where(contained, 1.0, related)
    effective = np.where(contained, distance, min_instance)
    # E ∉+ T and T has no instance: nothing to repair from
    orphaned = np.isinf(effective)
    scale[orphaned] = 0.0
    effective[orphaned] = 1.0
    floor = np.maximum(effective, 1.0)
    norm_idf = np.array([_normalised_idf(catalog, t) for t in type_ids])

    grid = np.zeros((len(TypeEntityFeatureMode), n_types, n_entities, 3))
    for m, mode in enumerate(TypeEntityFeatureMode):
        # IDF mode keeps a zero distance feature
        if mode is TypeEntityFeatureMode.INV_DIST:
            grid[m, :, :, 0] = scale / floor
        elif mode is TypeEntityFeatureMode.INV_SQRT_DIST:
            grid[m, :, :, 0] = scale / np.sqrt(floor)
        grid[m, :, :, 1] = scale * norm_idf[:, None]
        grid[m, :, :, 2] = contained
    return grid


# ----------------------------------------------------------------------
# f4: relation vs pair of column types (Section 4.2.4)
# ----------------------------------------------------------------------
def relation_types_features(
    catalog: Catalog,
    relation_label: str,
    left_type: str,
    right_type: str,
) -> np.ndarray:
    """Compatibility of a relation label with a column-type pair.

    ``relation_label`` may carry the ``^-1`` suffix, in which case the
    subject role belongs to ``right_type``.  The schema feature is 1 when the
    (role-ordered) column types are subtypes of the relation's schema types —
    column types are typically *more specific* than schema types, so the
    subtype check generalises the paper's exact "schema exists" indicator.

    Participation features approximate the paper's "fraction of entities
    under tc that appear in relationship bcc'" with participation in the
    relation against *any* entity (cacheable per (relation, type) instead of
    per type pair); the approximation is exact whenever the partner column
    covers the relation's full active domain.
    """
    relation_id, reverse = base_relation(relation_label)
    relation = catalog.relations.get(relation_id)
    subject_type, object_type = (
        (right_type, left_type) if reverse else (left_type, right_type)
    )
    schema_match = float(
        catalog.types.is_subtype(subject_type, relation.subject_type)
        and catalog.types.is_subtype(object_type, relation.object_type)
    )
    return np.array(
        [
            schema_match,
            participation_fraction(catalog, relation_id, subject_type, "subject"),
            participation_fraction(catalog, relation_id, object_type, "object"),
            1.0,
        ]
    )


def participation_fraction(
    catalog: Catalog, relation_id: str, type_id: str, role: str
) -> float:
    """Fraction of ``E(type_id)`` participating in ``relation_id`` as ``role``."""
    members = catalog.entities_of_type(type_id)
    if not members:
        return 0.0
    if role == "subject":
        participants = catalog.relations.participating_subjects(relation_id)
    elif role == "object":
        participants = catalog.relations.participating_objects(relation_id)
    else:
        raise ValueError(f"unknown role: {role!r}")
    return len(members & participants) / len(members)


# ----------------------------------------------------------------------
# f5: relation vs entity pair (Section 4.2.5)
# ----------------------------------------------------------------------
def relation_entities_features(
    catalog: Catalog,
    relation_label: str,
    left_entity: str,
    right_entity: str,
) -> np.ndarray:
    """Row-level vote of an entity pair for/against a relation label.

    Feature 0 is 1 when the catalog contains the (role-ordered) tuple.
    Feature 1 is the paper's functionality contradiction: for a one-to-one or
    many-to-one relation, a catalog tuple pairing this subject with a
    *different* object (and symmetrically for one-to-many) — evidence
    *against* the label, so its trained weight is negative.
    """
    relation_id, reverse = base_relation(relation_label)
    subject, object_ = (
        (right_entity, left_entity) if reverse else (left_entity, right_entity)
    )
    exists = float(catalog.relations.has_tuple(relation_id, subject, object_))
    violation = 0.0
    if not exists and catalog.relations.violates_functionality(
        relation_id, subject, object_
    ):
        violation = 1.0
    return np.array([exists, violation])
