-- Dice: AnalysisAppointmentsInstitutionOnNationalLevel / ScheduledAppointmentsBySpecificCityAndYear
-- dice the data to visualise the appointments that were scheduled in a specific city and year
SELECT "f".*
FROM "AppointmentRequest" "f"
JOIN "Institution" "j_institution" ON "f"."institution" = "j_institution"."id"
JOIN "Time" "j_scheduled_date" ON "f"."scheduled_date" = "j_scheduled_date"."id"
WHERE "j_institution"."city" = :id
  AND "j_scheduled_date"."year" = :year;
