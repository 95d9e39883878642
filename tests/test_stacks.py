"""The matrix stack behind spaces, maps and groups: its JSON bytes and its validation."""

import hashlib

import numpy as np
import pytest

from blt.altspace import AltMatrixSpace, kappa_gt_lambda_instance, space_from_graph, space_to_json
from blt.bilinear import AltBilinearMap, map_from_space, map_to_json
from blt.graphs import graph_from_mask
from blt.group import group_from_graph, group_to_json

# sha256 of the JSON below; a change means the on-disk format drifted
JSON_SHA256 = "c9dcef30cd809942f82dd1b5ba5cea26091059605c2a69240e46b7186690d19b"


def test_json_bytes_are_pinned():
    h = hashlib.sha256()
    for n in (2, 3, 4):
        for mask in range(1, 1 << (n * (n - 1) // 2)):  # the 71 graphs with an edge
            g = graph_from_mask(n, mask)
            sp = space_from_graph(g, 3)
            h.update(space_to_json(sp).encode())
            h.update(map_to_json(map_from_space(sp)).encode())
            h.update(group_to_json(group_from_graph(g, 3)).encode())
    for q in (3, 5):
        for s in range(2, 5):
            for t in range(2, 7 - s):
                h.update(space_to_json(kappa_gt_lambda_instance(s, t, q)).encode())
    assert h.hexdigest() == JSON_SHA256


@pytest.mark.parametrize("cls", [AltMatrixSpace, AltBilinearMap])
def test_one_non_alternating_matrix_is_refused(cls):
    mats = np.zeros((3, 3, 3), dtype=np.int64)
    mats[0, 0, 1], mats[0, 1, 0] = 1, 2
    mats[2, 1, 2], mats[2, 2, 1] = 1, 1  # A^T = A, not -A, at q = 3
    with pytest.raises(ValueError, match=r"matrix is not alternating \(need A\^T = -A mod q\)"):
        cls.from_matrices(mats, 3, 3)
    mats[2, 2, 1] = 2
    cls.from_matrices(mats, 3, 3)  # accepted once every matrix is alternating
