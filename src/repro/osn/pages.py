"""HTML rendering and parsing for every page type the OSN serves.

The paper's crawler downloads HTML and extracts data with a parser
(Section 3.2).  To exercise that same pipeline we render each
:class:`~repro.osn.view.ProfileView`, friend-list page and search page
to compact HTML, and provide the matching parsers the crawler uses.
Render/parse pairs are round-trip tested (including via hypothesis) so
the crawler provably recovers exactly what the site exposed.

The markup is deliberately regular (class names + ``data-`` attributes)
— we are reproducing an attack pipeline, not 2012 Facebook's markup —
but all structured values travel through real HTML escaping, so names
containing ``&``, ``<`` or quotes survive the trip.
"""

from __future__ import annotations

import html
import re
from operator import itemgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import ParseError
from .network import DirectoryEntry, School, directory_entries
from .profile import Gender, SchoolAffiliation
from .view import ProfileView, WallPostView, build_profile_view

_SITE_NAME = "FaceSpace"


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------

#: Escapes a ``str`` for text and attribute values (``quote=True``).
_esc = html.escape
_unesc = html.unescape

#: Finds a character ``html.escape`` rewrites.  A value without one is
#: its own escape, so renderers insert it as is: almost every value.
_needs_escape = re.compile("[&<>\"']").search


def _text(value: str) -> str:
    """``value`` escaped for HTML text or an attribute."""
    return _esc(value) if _needs_escape(value) else value


def _shell(title: str, body: str) -> str:
    return (
        f"<html><head><title>{_text(title)} | {_SITE_NAME}</title></head>"
        f"<body>{body}</body></html>"
    )


def _require(pattern: "re.Pattern[str]", text: str, what: str) -> "re.Match[str]":
    match = pattern.search(text)
    if match is None:
        raise ParseError(f"could not locate {what} in page")
    return match


# ----------------------------------------------------------------------
# Profile page
# ----------------------------------------------------------------------

def render_profile_page(view: ProfileView) -> str:
    """Render a profile view to HTML exactly as the viewer would see it.

    Every text value goes through :func:`_text`, which escapes only a
    value holding one of ``& < > " '``: the page is byte for byte what
    escaping every value gives.
    """
    parts: List[str] = [f'<div id="profile" data-uid="{view.user_id}">']
    parts.append(f'<h1 class="name">{_text(view.name)}</h1>')
    if view.has_profile_photo:
        parts.append(f'<img class="profile-photo" src="/photo/{view.user_id}.jpg"/>')
    if view.gender is not None:
        parts.append(f'<span class="gender">{_text(view.gender.value)}</span>')
    for network in view.networks:
        parts.append(f'<span class="network">{_text(network)}</span>')
    if view.high_schools:
        parts.append('<ul class="schools">')
        for aff in view.high_schools:
            year = "" if aff.graduation_year is None else str(aff.graduation_year)
            parts.append(
                f'<li class="school" data-school-id="{aff.school_id}" '
                f'data-year="{year}">{_text(aff.school_name)}</li>'
            )
        parts.append("</ul>")
    if view.relationship_status is not None:
        parts.append(
            f'<span class="relationship">{_text(view.relationship_status)}</span>'
        )
    if view.interested_in is not None:
        parts.append(f'<span class="interested-in">{_text(view.interested_in)}</span>')
    if view.birthday_year is not None:
        parts.append(f'<span class="birthday-year">{view.birthday_year}</span>')
    if view.hometown is not None:
        parts.append(f'<span class="hometown">{_text(view.hometown)}</span>')
    if view.current_city is not None:
        parts.append(f'<span class="current-city">{_text(view.current_city)}</span>')
    if view.employer is not None:
        parts.append(f'<span class="employer">{_text(view.employer)}</span>')
    if view.graduate_school is not None:
        parts.append(
            f'<span class="graduate-school">{_text(view.graduate_school)}</span>'
        )
    if view.photo_count is not None:
        parts.append(f'<span class="photo-count">{view.photo_count}</span>')
    if view.wall_post_count is not None:
        parts.append(f'<span class="wall-count">{view.wall_post_count}</span>')
    if view.wall_posts:
        parts.append('<ul class="wall">')
        parts.extend(
            f'<li class="wall-post" data-author="{post.author_id}">'
            f"{_text(post.text)}</li>"
            for post in view.wall_posts
        )
        parts.append("</ul>")
    if view.contact_email is not None:
        parts.append(f'<span class="contact-email">{_text(view.contact_email)}</span>')
    if view.contact_phone is not None:
        parts.append(f'<span class="contact-phone">{_text(view.contact_phone)}</span>')
    if view.friend_list_visible:
        parts.append(
            f'<a class="friends-link" href="/profile/{view.user_id}/friends">Friends</a>'
        )
    if view.message_button:
        parts.append(
            f'<a class="message-link" href="/messages/new?to={view.user_id}">Message</a>'
        )
    if view.public_search_listed:
        parts.append('<meta class="public-search" content="enabled"/>')
    parts.append("</div>")
    return _shell(view.name, "".join(parts))


#: The profile div; everything the parser reads follows it.
_PROFILE_DIV_RE = re.compile(r'<div id="profile" data-uid="(\d+)">')

#: Every element a profile page can carry, as one alternation, so one
#: left-to-right scan finds them all.  Escaping keeps ``<`` and ``"``
#: out of rendered text, so no text can end or fake an element.  Every
#: alternative starts at its tag's ``<``, so the scan skips ahead to
#: the next ``<`` between matches.  Groups: a text element's class and
#: text; a school's id, year and name; a wall post's author and text; a
#: marker element's class.
_PROFILE_ELEMENT_RE = re.compile(
    r'<(?:span|h1) class="([a-z-]+)">([^<]*)</'
    r'|<li class="school" data-school-id="(\d+)" data-year="(\d*)">([^<]*)</li>'
    r'|<li class="wall-post" data-author="(\d+)">([^<]*)</li>'
    r'|<(?:img|a|meta) class="(profile-photo|friends-link|message-link|public-search)"'
)


#: Each gender by its rendered value.
_GENDERS: Dict[str, Gender] = {gender.value: gender for gender in Gender}


def parse_profile_page(page: str) -> ProfileView:
    """Parse a profile page back into a :class:`ProfileView`.

    The crawler sees only this reconstruction; fields absent from the
    HTML come back as ``None``/empty, exactly like the original view.
    One scan after the profile div reads every element; where a text
    element repeats, its first occurrence counts.  A page without the
    profile div or the name raises :class:`ParseError`, and a gender
    that is no :class:`Gender` value raises ``ValueError``.
    """
    div = _require(_PROFILE_DIV_RE, page, "profile div")
    # A character reference starts with ``&``; on a page without one,
    # every value is its own unescape (``str`` returns it as is).
    unesc = _unesc if "&" in page else str
    texts: Dict[str, str] = {}
    networks: List[str] = []
    schools: List[SchoolAffiliation] = []
    wall_posts: List[WallPostView] = []
    markers: Set[str] = set()
    for cls, text, sid, year, sname, author, post, marker in _PROFILE_ELEMENT_RE.findall(
        page, div.end()
    ):
        if cls == "network":
            networks.append(unesc(text))
        elif cls:
            if cls not in texts:
                texts[cls] = unesc(text)
        elif sid:
            schools.append(
                SchoolAffiliation(
                    school_id=int(sid),
                    school_name=unesc(sname),
                    graduation_year=int(year) if year else None,
                )
            )
        elif author:
            wall_posts.append(WallPostView(int(author), unesc(post)))
        else:
            markers.add(marker)
    if "name" not in texts:
        raise ParseError("could not locate name in page")
    span = texts.get
    gender = span("gender")
    return build_profile_view(
        user_id=int(div.group(1)),
        name=texts["name"],
        gender=None if gender is None else _GENDERS.get(gender) or Gender(gender),
        networks=tuple(networks),
        has_profile_photo="profile-photo" in markers,
        high_schools=tuple(schools),
        relationship_status=span("relationship"),
        interested_in=span("interested-in"),
        birthday_year=_int_or_none(span("birthday-year")),
        hometown=span("hometown"),
        current_city=span("current-city"),
        employer=span("employer"),
        graduate_school=span("graduate-school"),
        photo_count=_int_or_none(span("photo-count")),
        wall_post_count=_int_or_none(span("wall-count")),
        wall_posts=tuple(wall_posts),
        contact_email=span("contact-email"),
        contact_phone=span("contact-phone"),
        friend_list_visible="friends-link" in markers,
        message_button="message-link" in markers,
        public_search_listed="public-search" in markers,
    )


def _int_or_none(value: Optional[str]) -> Optional[int]:
    return int(value) if value is not None else None


# ----------------------------------------------------------------------
# Listing pages (friend lists and search results share a row format)
# ----------------------------------------------------------------------

class ListingPage(NamedTuple):
    """A parsed page of user rows with pagination metadata.

    A named tuple, like :class:`DirectoryEntry`: immutable and cheap to
    build, since every listing GET parses one, with the ``repr`` and
    hash of its fields.
    """

    total: int
    offset: int
    entries: Tuple[DirectoryEntry, ...]

    @property
    def next_offset(self) -> Optional[int]:
        after = self.offset + len(self.entries)
        return after if after < self.total else None


def _render_rows(entries: Sequence[DirectoryEntry]) -> str:
    # :func:`_text`'s guard, asked once for the page's 20 names: a clean
    # name is its own escape, so one hit escapes them all.
    escape = _esc if _needs_escape("".join(map(itemgetter(1), entries))) else str
    rows = [
        f'<li class="user-row" data-uid="{uid}"><a href="/profile/{uid}">'
        f"{escape(name)}</a></li>"
        for uid, name in entries
    ]
    return "".join(rows)


_ROW_RE = re.compile(
    r'<li class="user-row" data-uid="(\d+)"><a href="/profile/\d+">([^<]*)</a></li>'
)

#: The header of each listing kind: its total and offset.
_LISTING_RES = {
    kind: re.compile(rf'<div class="{kind}" data-total="(\d+)" data-offset="(\d+)">')
    for kind in ("friend-list", "search-results")
}


def _parse_rows(page: str) -> Tuple[DirectoryEntry, ...]:
    """The page's rows, built at C level; names are unescaped only on a
    page that holds an ``&``."""
    rows = _ROW_RE.findall(page)
    if not rows:
        return ()
    uids, names = zip(*rows)
    if "&" in page:
        names = map(_unesc, names)
    return tuple(directory_entries(map(int, uids), names))


def _render_listing(
    kind: str, title: str, total: int, offset: int, entries: Sequence[DirectoryEntry]
) -> str:
    body = (
        f'<div class="{kind}" data-total="{total}" data-offset="{offset}">'
        f"<ul>{_render_rows(entries)}</ul></div>"
    )
    return _shell(title, body)


def _parse_listing(kind: str, page: str) -> ListingPage:
    match = _require(_LISTING_RES[kind], page, f"{kind} listing")
    return ListingPage(int(match.group(1)), int(match.group(2)), _parse_rows(page))


def render_friends_page(
    owner_id: int, total: int, offset: int, entries: Sequence[DirectoryEntry]
) -> str:
    return _render_listing("friend-list", f"Friends of user {owner_id}", total, offset, entries)


def parse_friends_page(page: str) -> ListingPage:
    return _parse_listing("friend-list", page)


def render_search_page(
    total: int, offset: int, entries: Sequence[DirectoryEntry]
) -> str:
    return _render_listing("search-results", "People search", total, offset, entries)


def parse_search_page(page: str) -> ListingPage:
    return _parse_listing("search-results", page)


# ----------------------------------------------------------------------
# School directory page
# ----------------------------------------------------------------------

def render_school_page(school: School) -> str:
    hint = "" if school.enrollment_hint is None else str(school.enrollment_hint)
    body = (
        f'<div class="school-info" data-school-id="{school.school_id}" '
        f'data-enrollment="{hint}">'
        f'<h1 class="school-name">{_text(school.name)}</h1>'
        f'<span class="school-city">{_text(school.city)}</span></div>'
    )
    return _shell(school.name, body)


_SCHOOL_INFO_RE = re.compile(
    r'<div class="school-info" data-school-id="(\d+)" data-enrollment="(\d*)">'
)
_SCHOOL_NAME_RE = re.compile(r'<h1 class="school-name">(.*?)</h1>', re.DOTALL)
_SCHOOL_CITY_RE = re.compile(r'<span class="school-city">(.*?)</span>', re.DOTALL)


def parse_school_page(page: str) -> School:
    match = _require(_SCHOOL_INFO_RE, page, "school info")
    name = _unesc(_require(_SCHOOL_NAME_RE, page, "school name").group(1))
    city = _unesc(_require(_SCHOOL_CITY_RE, page, "school city").group(1))
    enrollment = match.group(2)
    return School(
        school_id=int(match.group(1)),
        name=name,
        city=city,
        enrollment_hint=int(enrollment) if enrollment else None,
    )


# ----------------------------------------------------------------------
# Action confirmation pages (message sent, friend request sent)
# ----------------------------------------------------------------------

def render_action_page(kind: str, target_id: int) -> str:
    body = f'<div class="action" data-kind="{_text(kind)}" data-target="{target_id}"></div>'
    return _shell(kind, body)


_ACTION_RE = re.compile(r'<div class="action" data-kind="([^"]+)" data-target="(\d+)">')


def parse_action_page(page: str) -> Tuple[str, int]:
    """Parse a confirmation page into (kind, target user id)."""
    match = _require(_ACTION_RE, page, "action")
    return _unesc(match.group(1)), int(match.group(2))
