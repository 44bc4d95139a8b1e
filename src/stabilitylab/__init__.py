"""stabilitylab: permutation metrics, marked groups, IRS, and Kakutani-Rokhlin partitions.

A desk-scale toolkit around four interlocking pieces:

* free-group words and balls (``words``), evaluated in finite permutation
  tuples with exact Hamming-metric checkers (``perms``);
* markings of groups compared through ball-restricted kernels, including the
  alternating enrichment of the integers and truncated diagonal products
  (``marked``);
* invariant random subgroups of finite actions as fingerprint distributions:
  exact mixtures, padding, coset realizations, coloring stabilizers (``irs``),
  plus equivariance-defect matching between actions (``challenges``);
* substitution subshifts with exact clopen algebra, tower partitions, and the
  finite shadows of their topological full groups, down to stabilizer
  pushforwards (``subshift``, ``fullgroup``).

The ``harness`` module exposes every experiment through the ``stability-lab``
command line.
"""

from .words import (Ball, InvariantError, ReducedWord, ResourceLimitError,
                    WordSet, ball_size, enumerate_ball, identity,
                    kernel_fingerprint, reduce, word_from_string, word_to_string)
from .perms import (GenTuple, Perm, alt_marking, ball_images,
                    check_almost_solution, check_separating, generate_closure,
                    hamming_distance, identity_perm, perm_from_cycles, word_eval)
from .marked import (AZElement, DiagonalOracle, MarkedGroupOracle, alt_oracle,
                     az_oracle, convergence_table, marked_nu, neumann_truncation,
                     tail_defect)
from .irs import (CylinderFingerprint, EmpiricalIRS, FiniteGSet, disjoint_union,
                  irs_distance, irs_of_gset, mixture, pad_gset, point_mass_irs,
                  realize_irs_as_gset, trivial_gset, vershik_irs)
from .challenges import (challenge_defect, d_gen_bound, d_gen_exact, gen_norm,
                         is_m_good)
from .subshift import (ClopenSet, ErgodicMeasure, KRPartition, Substitution,
                       chacon, cylinder, fibonacci, full_set, kr_partition,
                       refine_kr, return_words, substitution_by_name, thue_morse)
from .fullgroup import (TableElement, adapted_partition, ball_elements,
                        fullgroup_irs, fullgroup_irs_limit_check,
                        identity_element, local_embedding, three_cycle,
                        tower_gadgets)

__version__ = "0.1.0"
