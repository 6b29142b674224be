"""omq: reasoning and static analysis for ontology-mediated queries over
tuple-generating dependencies.

The package parses a small rule/query language, classifies rule sets
(linear, guarded, non-recursive, sticky, full), runs the restricted chase,
computes UCQ rewritings by resolution, evaluates certain answers, decides
containment between UCQ-rewritable queries, and decides distribution over
components and unsatisfiability.
"""

from .model import (CQ, OMQ, TGD, UCQ, Atom, Constant, Database, Instance,
                    NullFactory, Predicate, Schema, Substitution, Variable,
                    active_domain, apply_substitution, atom,
                    compose_substitutions, freeze_cq)
from .errors import (ArityError, BudgetExhausted, EmptyBody, InactiveTrigger,
                     ModelError, OmqError, ParseError, PreconditionViolated,
                     ProgramSyntaxError, ReservedNameError, SafetyError,
                     SchemaMismatch, UnsupportedClass, ZeroAryAtom)
from .parser import Program, parse_program, serialize_program
from .classify import (ClassReport, MarkedVariableSet, NotStratifiable,
                       Stratification, classify, is_guarded, is_linear,
                       is_non_recursive, is_sticky, marked_variables, stratify)
from .chase import (ChaseResult, Trigger, chase_bounded, chase_nr, chase_step,
                    find_triggers, normalize_tgds, satisfies)
from .rewrite import (DEFAULT_BUDGET, cq_isomorphic, cq_key, factorize_step,
                      is_applicable, is_factorizable, mgu, rewrite_step,
                      xrewrite)
from .evaluate import (Prepared, certain_answers, eval_membership, evaluate_cq,
                       evaluate_ucq, prepare)
from .contain import (ContainmentVerdict, WitnessBound, brute_force_contains,
                      contains, coeval_to_cocontainment, equivalent,
                      eval_to_containment, is_unsatisfiable, ucq_omq_to_cq_omq,
                      witness_bound)
from .apps import (CQComponents, DistributionVerdict, components,
                   cq_components, distributes, distribution_definitional_check)
from .testkit import (GeneratorConfig, count_databases, enumerate_databases,
                      random_omq, sticky_family, sticky_family_witness)

__version__ = "0.1.0"
