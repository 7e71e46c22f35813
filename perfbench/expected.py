"""Published homology composition-factor lists of the three worked GL(4) coweights.

Each list maps a homological degree to the factors ``(v, I, J)`` with
multiplicity exactly one there; every other degree holds no factor.  The
benchmark keeps its own copy so that it does not depend on the test suite.
"""

from __future__ import annotations

H3_SHARED = {
    ("e", (1, 2, 3), ()),
    ("s3", (1, 2), ()),
    ("s2*s3", (1, 3), (3,)),
    ("s1*s2*s3", (2, 3), (2, 3)),
}

GL4_HOMOLOGY = {
    (3, 2, 1, -6): {3: H3_SHARED},
    (2, 1, 0, -3): {
        3: H3_SHARED,
        2: {
            ("s1*s2", (2, 3), ()),
            ("s1*s2*s3", (2, 3), ()),
            ("s3*s1*s2", (2,), ()),
            ("s1*s2*s3*s2", (2,), ()),
            ("s2*s3*s1*s2", (1, 3), (1, 3)),
            ("s2*s3*s1*s2", (1, 3), (3,)),
            ("s1*s2*s3*s1*s2", (3,), (3,)),
        },
    },
    (5, 1, -2, -4): {
        3: {("e", (1, 2, 3), ())},
        2: {
            ("s1*s2", (2, 3), ()),
            ("s2*s1", (1, 3), ()),
            ("s3*s2", (1, 2), ()),
            ("s1*s2*s1", (3,), ()),
            ("s3*s2*s1", (1, 2), ()),
            ("s3*s2*s1", (1, 2), (2,)),
            ("s3*s1*s2", (2,), ()),
            ("s2*s3*s1*s2", (1, 3), (1, 3)),
            ("s2*s3*s1*s2", (1, 3), (1,)),
            ("s3*s1*s2*s1", (2,), (2,)),
            ("s3*s1*s2*s1", (2,), ()),
            ("s2*s3*s1*s2*s1", (1,), (1,)),
        },
    },
}
