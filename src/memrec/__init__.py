"""Memory-decay tag and hashtag recommendation with an offline eval harness.

The scorers rank items by an activation value combining how often and how
recently an item was used (base level with power-law forgetting) with how
strongly it associates with the current context. Popularity and
collaborative-filtering baselines, a leave-newest-out evaluation harness,
and a tag-reuse analysis pipeline round out the toolkit; see the ``cli``
module for the batch entry point.
"""

from .activation import (
    ContextProfile,
    DecayParams,
    OccurrenceHistory,
    associations,
    base_level,
    base_levels,
    context_profile,
    histories,
)
from .analysis import (
    CurveBin,
    DecayComparison,
    DecayFit,
    ReuseCurve,
    ReuseObservation,
    bin_reuse,
    compare_decay,
    fit_decay,
    reuse_observations,
)
from .data import (
    Folksonomy,
    ParseError,
    Post,
    SocialGraph,
    SplitSpec,
    TweetRecord,
    chronological_split,
    parse_edges,
    parse_posts,
    parse_tweets,
)
from .evaluation import (
    AlgorithmReport,
    EvalReport,
    evaluate,
)
from .hashtags import (
    HashtagQuery,
    TweetCorpus,
    UsageBreakdown,
    hashtag_usage_breakdown,
    leave_newest_out,
    score_bll_i,
    score_bll_is,
    score_bll_isc,
    score_bll_s,
    score_content,
)
from .recommenders import (
    ALGORITHMS,
    HybridParams,
    ScoredList,
    mix_softmax,
    recommend,
    score_cf,
    softmax_norm,
    top_k,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgorithmReport",
    "ContextProfile",
    "CurveBin",
    "DecayComparison",
    "DecayFit",
    "DecayParams",
    "EvalReport",
    "Folksonomy",
    "HashtagQuery",
    "HybridParams",
    "OccurrenceHistory",
    "ParseError",
    "Post",
    "ReuseCurve",
    "ReuseObservation",
    "ScoredList",
    "SocialGraph",
    "SplitSpec",
    "TweetCorpus",
    "TweetRecord",
    "UsageBreakdown",
    "associations",
    "base_level",
    "base_levels",
    "bin_reuse",
    "chronological_split",
    "compare_decay",
    "context_profile",
    "evaluate",
    "fit_decay",
    "hashtag_usage_breakdown",
    "histories",
    "leave_newest_out",
    "mix_softmax",
    "parse_edges",
    "parse_posts",
    "parse_tweets",
    "recommend",
    "reuse_observations",
    "score_bll_i",
    "score_bll_is",
    "score_bll_isc",
    "score_bll_s",
    "score_cf",
    "score_content",
    "softmax_norm",
    "top_k",
]
