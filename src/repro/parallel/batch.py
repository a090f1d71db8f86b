"""Chunked batch evaluation helpers built on :func:`~repro.parallel.engine.ordered_map`.

These cover the bulk, trivially-parallel array jobs in the experiment
drivers — scoring a whole object set with a trained classifier, evaluating a
predicate over every object — where the natural work unit is a contiguous
slice of rows sized to the data.

The feature matrix crosses process boundaries through shared-memory pages
(:mod:`repro.parallel.shm`): the parent publishes it once and each chunk
payload carries only the tiny page manifest plus slice bounds, so fanning a
million-row matrix over 8 workers pickles kilobytes, not eight copies of the
matrix.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.learning.base import Classifier
from repro.parallel.engine import ordered_map, resolve_worker_count
from repro.parallel.shm import AttachedPages, PageManifest, attach_pages, publish_arrays

_FEATURES_KEY = "features"

#: Worker-side cache of attached feature pages, keyed by the manifest's
#: segment names: every chunk of one map call attaches once per worker, not
#: once per chunk.  Bounded because workers of a long-lived parent may see
#: several distinct matrices.
_ATTACHED: "OrderedDict[tuple[str, ...], AttachedPages]" = OrderedDict()
_ATTACHED_LIMIT = 4


def _attached_features(manifest: PageManifest) -> np.ndarray:
    key = tuple(page.segment for page in manifest.pages)
    attached = _ATTACHED.get(key)
    if attached is None:
        attached = attach_pages(manifest)
        _ATTACHED[key] = attached
        while len(_ATTACHED) > _ATTACHED_LIMIT:
            _, evicted = _ATTACHED.popitem(last=False)
            evicted.close()
    else:
        _ATTACHED.move_to_end(key)
    return attached.arrays[_FEATURES_KEY]


def _score_shm_chunk(payload: tuple[Classifier, PageManifest, int, int]) -> np.ndarray:
    classifier, manifest, start, stop = payload
    features = _attached_features(manifest)
    return classifier.predict_scores(features[start:stop])


def predict_scores_chunked(
    classifier: Classifier,
    features: np.ndarray,
    workers: int | None = 1,
    chunk_size: int | None = None,
) -> np.ndarray:
    """Score ``features`` with ``classifier``, fanning out over row chunks.

    For classifiers whose scoring is a pure per-row function of the fitted
    state (``deterministic_scores``, i.e. every real learner) chunking is
    exact: the concatenated result is identical for any worker count.
    Classifiers that consume internal RNG state per call (the random
    baseline) are scored serially regardless of ``workers``, because row
    chunks would each replay the same stream prefix.  With ``workers <= 1``
    this is just ``classifier.predict_scores(features)``.  The classifier
    must be picklable for ``workers > 1`` (every classifier in
    :mod:`repro.learning` is); the feature rows travel through shared
    memory, never through pickle.
    """
    workers = resolve_worker_count(workers)
    if (
        workers <= 1
        or features.shape[0] <= 1
        or not getattr(classifier, "deterministic_scores", True)
    ):
        return classifier.predict_scores(features)
    num_rows = features.shape[0]
    if chunk_size is None:
        chunk_size = max(1, -(-num_rows // workers))
    with publish_arrays({_FEATURES_KEY: np.ascontiguousarray(features)}) as pages:
        payloads = [
            (classifier, pages.manifest, start, min(start + chunk_size, num_rows))
            for start in range(0, num_rows, chunk_size)
        ]
        parts = ordered_map(_score_shm_chunk, payloads, workers)
    return np.concatenate(parts)
