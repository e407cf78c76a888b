"""Simulated Online Social Network substrate.

This package is the stand-in for 2012/2013 Facebook (and Google+): a
complete in-memory OSN with accounts, real-vs-registered birth dates,
per-field privacy settings, the documented minor-protection policies,
a friendship graph, people search that excludes registered minors, an
HTML frontend and an anti-crawling rate limiter.

Public API highlights
---------------------
* :class:`~repro.osn.network.SocialNetwork` — the network itself.
* :func:`~repro.osn.policy.facebook_policy` /
  :func:`~repro.osn.policy.googleplus_policy` — the Table-1/Table-6
  policy engines.
* :class:`~repro.osn.frontend.HtmlFrontend` — the crawlable HTML face.
"""

from .clock import SimClock
from .errors import (
    AccountDisabledError,
    AuthenticationError,
    BadRequestError,
    ForbiddenError,
    NotFoundError,
    OsnError,
    ParseError,
    PolicyError,
    RateLimitedError,
    RegistrationError,
)
from .frontend import HtmlFrontend
from .network import DirectoryEntry, GraphSearchQuery, School, SocialNetwork
from .policy import SitePolicy, facebook_policy, googleplus_policy, policy_by_name
from .privacy import (
    EXTENDED_FIELDS,
    MINIMAL_FIELDS,
    Audience,
    PrivacySettings,
    ProfileField,
    Relationship,
)
from .profile import (
    Birthday,
    ContactInfo,
    Gender,
    Name,
    Profile,
    SchoolAffiliation,
    WallPost,
)
from .ratelimit import RateLimitConfig, RateLimiter
from .user import Account
from .messaging import ContactService, FriendRequest, Message
from .view import ProfileView, WallPostView

__all__ = [
    "Account",
    "AccountDisabledError",
    "Audience",
    "AuthenticationError",
    "BadRequestError",
    "Birthday",
    "ContactService",
    "ContactInfo",
    "DirectoryEntry",
    "EXTENDED_FIELDS",
    "ForbiddenError",
    "FriendRequest",
    "Gender",
    "GraphSearchQuery",
    "HtmlFrontend",
    "MINIMAL_FIELDS",
    "Message",
    "Name",
    "NotFoundError",
    "OsnError",
    "ParseError",
    "PolicyError",
    "PrivacySettings",
    "Profile",
    "ProfileField",
    "ProfileView",
    "RateLimitConfig",
    "RateLimitedError",
    "RateLimiter",
    "RegistrationError",
    "Relationship",
    "School",
    "SchoolAffiliation",
    "SimClock",
    "SitePolicy",
    "SocialNetwork",
    "WallPost",
    "WallPostView",
    "facebook_policy",
    "googleplus_policy",
    "policy_by_name",
]
