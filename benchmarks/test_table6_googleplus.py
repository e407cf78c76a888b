"""Table 6 (Appendix A): Google+'s default/worst-case visibility.

Unlike Facebook, Google+ minors *may* opt into exposing school, city,
relationship, photos and even phone numbers publicly; defaults are
protective and school search still excludes registered minors.
"""

from repro.analysis.tables import policy_visibility_matrix, render_policy_table
from repro.osn.clock import SimClock
from repro.osn.network import SocialNetwork
from repro.osn.policy import facebook_policy, googleplus_policy
from repro.osn.privacy import PrivacySettings
from repro.osn.profile import Birthday, Name, Profile, SchoolAffiliation

from _bench_utils import emit


def test_table6_googleplus_policy():
    matrix = policy_visibility_matrix(googleplus_policy())
    rows = {row[0]: row[1:] for row in matrix}

    # Name/photo visible everywhere.
    assert rows["Name, Profile Picture"] == (True, True, True, True)
    # Worst-case minors expose school/city/phone/relationship (the
    # paper's key contrast with Facebook).
    for label in (
        "Gender, Employment, HS, Hometown, Current City",
        "Home and Work Phone",
        "Relationship, Looking",
        "Photos",
    ):
        assert rows[label][2], label
        assert not rows[label][0], label  # but defaults stay protective
    # Google+ still lets worst-case minors appear in public search,
    # yet keeps them out of *school* search - verify against the engine.
    net = SocialNetwork(policy=googleplus_policy(), clock=SimClock(2012.25))
    school = net.register_school("G+ High", "Plusville")
    minor = net.register_account(
        profile=Profile(
            name=Name("Gp", "Minor"),
            high_schools=(SchoolAffiliation(school.school_id, school.name, 2014),),
        ),
        registered_birthday=Birthday(1997),
        settings=PrivacySettings.everything_public(),
        enforce_minimum_age=False,
    )
    viewer = net.register_account(
        profile=Profile(name=Name("A", "Dult")), registered_birthday=Birthday(1980)
    )
    _, entries = net.school_search(viewer.user_id, school.school_id)
    assert minor.user_id not in {e.user_id for e in entries}

    emit(
        "table6_googleplus_policy",
        render_policy_table(
            googleplus_policy(),
            "Table 6: Google+ - default and worst-case information "
            "available to strangers",
        ),
    )


def test_googleplus_exposes_more_than_facebook_for_minors():
    fb = sum(1 for row in policy_visibility_matrix(facebook_policy()) if row[3])
    gp = sum(1 for row in policy_visibility_matrix(googleplus_policy()) if row[3])
    assert gp > fb
