"""Regex characteristics over the {<,=,>} alphabet, time-series constraint
evaluation, sharp result-variable bounds, and brute-force certification."""

from types import ModuleType as _ModuleType

from .sigregex import (
    ALPHABET,
    EQ,
    GT,
    LT,
    Automaton,
    EmptyLanguageError,
    NotDisjunctionCapsuledError,
    ParseError,
    RegexError,
    check_word,
    parse,
    render,
    word_key,
)
from .sigregex import compile as compile_regex
from .series import (
    DEFAULTS,
    MINUS_INF,
    PLUS_INF,
    Aggregator,
    Domain,
    DomainError,
    EmptyPatternError,
    Feature,
    Occurrence,
    PatternSpec,
    SeriesError,
    TimeSeries,
    enumerate_series,
    evaluate,
    feature_of,
    fmt_ext,
    maximal_occurrences,
    signature,
    word_height,
)
from .characteristics import (
    AmbiguousInducingWordError,
    CharacteristicsError,
    CharacteristicsReport,
    CharKind,
    CharValue,
    WordNotInLanguageError,
    default_cap,
    height,
    inducing_words,
    overlap,
    overlap_of_words,
    range_of,
    range_params,
    report,
    shift,
    smallest_variation,
    superpositions,
    width,
)
from .properties import (
    FixedLengthRegexError,
    PropertiesError,
    PropertyCheck,
    is_fixed_length,
    minimal_words,
    nb_no_overlap,
    nb_overlap,
    nb_simple,
    occurrence_feasible,
    overlap_class,
    width_max,
    width_occurrence,
    width_sum,
)
from .bounds import (
    BoundError,
    BoundResult,
    NotApplicableError,
    NotSupportedError,
    OverlapExceedsWidthError,
    PropertyMissingError,
    Side,
    VariationUndefinedError,
    bound,
    interval_cap,
    max_width_upper,
    min_width_lower,
    nb_lower,
    nb_upper,
    sum_width_upper,
)
from .oracle import (
    DEFAULT_BUDGET,
    GF_SUPPORTED,
    BudgetExceededError,
    ExtremaResult,
    SweepReport,
    SweepRow,
    brute_extrema,
    brute_overlap,
    brute_variation,
    check_budget,
    sharpness_report,
)
from .catalogue import (
    CatalogueEntry,
    CatalogueError,
    UnknownPatternError,
    all_entries,
    golden_check,
    lookup,
    names,
)

__version__ = "0.1.0"

# every public name bound by the imports above, then the version
__all__ = [
    _name for _name, _value in list(globals().items())
    if not _name.startswith("_") and not isinstance(_value, _ModuleType)
] + ["__version__"]
