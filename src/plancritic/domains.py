"""Canonical PDDL text for the built-in benchmark domains."""

from __future__ import annotations

from functools import lru_cache

from .pddl import DomainDef, parse_domain

BLOCKSWORLD_DOMAIN = """\
(define (domain blocksworld-4ops)
(:requirements :strips)
(:predicates (clear ?x)
             (ontable ?x)
             (handempty)
             (holding ?x)
             (on ?x ?y))

(:action pick-up
  :parameters (?ob)
  :precondition (and (clear ?ob) (ontable ?ob) (handempty))
  :effect (and (holding ?ob) (not (clear ?ob)) (not (ontable ?ob))
               (not (handempty))))

(:action put-down
  :parameters (?ob)
  :precondition (holding ?ob)
  :effect (and (clear ?ob) (handempty) (ontable ?ob)
               (not (holding ?ob))))

(:action stack
  :parameters (?ob ?underob)
  :precondition (and (clear ?underob) (holding ?ob))
  :effect (and (handempty) (clear ?ob) (on ?ob ?underob)
               (not (clear ?underob)) (not (holding ?ob))))

(:action unstack
  :parameters (?ob ?underob)
  :precondition (and (on ?ob ?underob) (clear ?ob) (handempty))
  :effect (and (holding ?ob) (clear ?underob)
               (not (on ?ob ?underob))
               (not (clear ?ob)) (not (handempty)))))
"""

LOGISTICS_DOMAIN = """\
(define (domain logistics-strips)
(:requirements :strips)
(:predicates (package ?p)
             (truck ?t)
             (airplane ?a)
             (location ?l)
             (airport ?l)
             (city ?c)
             (in-city ?l ?c)
             (at ?x ?l)
             (in ?p ?v))

(:action load-truck
  :parameters (?p ?t ?l)
  :precondition (and (package ?p) (truck ?t) (location ?l) (at ?t ?l) (at ?p ?l))
  :effect (and (in ?p ?t) (not (at ?p ?l))))

(:action unload-truck
  :parameters (?p ?t ?l)
  :precondition (and (package ?p) (truck ?t) (location ?l) (at ?t ?l) (in ?p ?t))
  :effect (and (at ?p ?l) (not (in ?p ?t))))

(:action load-airplane
  :parameters (?p ?a ?l)
  :precondition (and (package ?p) (airplane ?a) (airport ?l) (at ?a ?l) (at ?p ?l))
  :effect (and (in ?p ?a) (not (at ?p ?l))))

(:action unload-airplane
  :parameters (?p ?a ?l)
  :precondition (and (package ?p) (airplane ?a) (airport ?l) (at ?a ?l) (in ?p ?a))
  :effect (and (at ?p ?l) (not (in ?p ?a))))

(:action drive-truck
  :parameters (?t ?from ?to ?c)
  :precondition (and (truck ?t) (location ?from) (location ?to) (city ?c)
                     (in-city ?from ?c) (in-city ?to ?c) (at ?t ?from))
  :effect (and (at ?t ?to) (not (at ?t ?from))))

(:action fly-airplane
  :parameters (?a ?from ?to)
  :precondition (and (airplane ?a) (airport ?from) (airport ?to) (at ?a ?from))
  :effect (and (at ?a ?to) (not (at ?a ?from)))))
"""

MINIGRID_DOMAIN = """\
(define (domain minigrid-strips)
(:requirements :strips)
(:predicates (room ?r)
             (key ?k)
             (robot-at ?r)
             (key-at ?k ?r)
             (holding-key ?k)
             (arm-free)
             (connected ?a ?b)
             (locked ?a ?b ?k))

(:action move
  :parameters (?from ?to)
  :precondition (and (room ?from) (room ?to) (robot-at ?from) (connected ?from ?to))
  :effect (and (robot-at ?to) (not (robot-at ?from))))

(:action pick-key
  :parameters (?k ?r)
  :precondition (and (key ?k) (room ?r) (robot-at ?r) (key-at ?k ?r) (arm-free))
  :effect (and (holding-key ?k) (not (key-at ?k ?r)) (not (arm-free))))

(:action drop-key
  :parameters (?k ?r)
  :precondition (and (key ?k) (room ?r) (robot-at ?r) (holding-key ?k))
  :effect (and (key-at ?k ?r) (arm-free) (not (holding-key ?k))))

(:action unlock
  :parameters (?from ?to ?k)
  :precondition (and (room ?from) (room ?to) (key ?k) (robot-at ?from)
                     (holding-key ?k) (locked ?from ?to ?k))
  :effect (and (connected ?from ?to) (connected ?to ?from)
               (not (locked ?from ?to ?k)) (not (locked ?to ?from ?k)))))
"""


@lru_cache(maxsize=None)
def blocksworld_domain() -> DomainDef:
    return parse_domain(BLOCKSWORLD_DOMAIN)


@lru_cache(maxsize=None)
def logistics_domain() -> DomainDef:
    return parse_domain(LOGISTICS_DOMAIN)


@lru_cache(maxsize=None)
def minigrid_domain() -> DomainDef:
    return parse_domain(MINIGRID_DOMAIN)
