"""Core annotator: the paper's primary contribution.

Implements the joint cell-entity / column-type / column-pair-relation
annotation model of Section 4:

* :mod:`repro.core.features` — the five feature families f1..f5,
* :mod:`repro.core.battery` — f1/f2 as array passes over many (text,
  lemma) pairs at once,
* :mod:`repro.core.candidates` — candidate label spaces (``Erc``, ``Tc``,
  ``Bcc'``) built from the lemma index,
* :mod:`repro.core.model` — the trainable weight container
  (:class:`AnnotationModel`),
* :mod:`repro.core.problem` — per-table candidate spaces, feature caches
  and the joint feature map,
* :mod:`repro.core.simple_inference` — the polynomial special case of the
  paper's Figure 2 (no relation variables),
* :mod:`repro.core.fused` — collective message-passing inference (the
  Figure-11 schedule on the fused engine of :mod:`repro.graph.fused`),
* :mod:`repro.core.baselines` — the LCA and Majority baselines
  (Section 4.5),
* :mod:`repro.core.learning` — structured perceptron / SSVM-subgradient
  training of w1..w5,
* :mod:`repro.core.annotator` — the high-level :class:`TableAnnotator`
  facade.
"""

from repro.core.annotation import (
    CellAnnotation,
    ColumnAnnotation,
    RelationAnnotation,
    TableAnnotation,
)
from repro.core.annotator import AnnotatorConfig, TableAnnotator
from repro.core.augmentation import (
    AugmentationReport,
    CatalogAugmenter,
    InstanceLinkProposal,
    TupleProposal,
)
from repro.core.baselines import LCAAnnotator, MajorityAnnotator
from repro.core.candidates import CandidateEngine
from repro.core.features import TypeEntityFeatureMode
from repro.core.learning import StructuredTrainer, TrainingConfig
from repro.core.model import AnnotationModel

__all__ = [
    "AnnotationModel",
    "AnnotatorConfig",
    "AugmentationReport",
    "CandidateEngine",
    "CatalogAugmenter",
    "InstanceLinkProposal",
    "TupleProposal",
    "CellAnnotation",
    "ColumnAnnotation",
    "LCAAnnotator",
    "MajorityAnnotator",
    "RelationAnnotation",
    "StructuredTrainer",
    "TableAnnotation",
    "TableAnnotator",
    "TrainingConfig",
    "TypeEntityFeatureMode",
]
